// Lint fixture: alloc-in-hot-path. HotIngest is a KDSEL_HOT root; the
// walk flags container growth with no reserve() anywhere in the tree
// and allocating string formatting, both directly in the root and
// transitively through AppendStaging. SetupStaging is a trusted
// KDSEL_ALLOC_OK boundary and HotReserved's vector is reserve-proven,
// so neither is flagged.
// NOT compiled — scanned only.
//
// Keep line numbers stable: lint_test pins them.

#include <string>
#include <vector>

#define KDSEL_HOT
#define KDSEL_ALLOC_OK(why)

namespace kdsel::fixture {

std::vector<int> g_staging;

void AppendStaging(int v) {
  g_staging.push_back(v);  // line 22: alloc-in-hot-path (via HotIngest)
}

KDSEL_ALLOC_OK("setup-time growth, verified by fixture design")
void SetupStaging(int v) {
  g_staging.push_back(v);  // not flagged: inside an ALLOC_OK boundary
}

struct HotRing {
  std::vector<int> ring;
  std::vector<int> backing;
};

KDSEL_HOT void HotIngest(HotRing& r, int v) {
  r.ring.push_back(v);  // line 36: alloc-in-hot-path (no reserve)
  AppendStaging(v);
  SetupStaging(v);
  std::to_string(v);  // line 39: alloc-in-hot-path (formatting)
}

KDSEL_HOT void HotReserved(HotRing& r) {
  r.backing.reserve(64);
  r.backing.push_back(1);  // not flagged: backing is reserve-proven
}

}  // namespace kdsel::fixture

// Explicit template arguments must not hide an allocating std:: call.
namespace kdsel::fixture {

KDSEL_HOT void HotMake(int n) {
  auto buf = std::make_unique<float[]>(n);  // line 53: alloc-in-hot-path
  auto box = std::make_unique<int>(n);      // line 54: alloc-in-hot-path
  auto shared = std::make_shared<int>(n);   // line 55: alloc-in-hot-path
}

}  // namespace kdsel::fixture
