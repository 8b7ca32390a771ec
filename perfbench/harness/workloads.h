// The benchmark's workloads. Each returns what one run measured; main()
// prints it.

#ifndef KDSEL_PERFBENCH_WORKLOADS_H_
#define KDSEL_PERFBENCH_WORKLOADS_H_

#include "harness/common.h"

namespace perfbench {

/// train_pa: label -> train (PISL + MKI + PA) -> evaluate at exp quick
/// scale, in-process.
Result RunTrainPa(const RunConfig& rc, SpanLog* log);

/// serve_hot / serve_unique: open-loop select traffic over TCP against a
/// `kdsel serve --listen` process.
Result RunServe(const RunConfig& rc, SpanLog* log);

}  // namespace perfbench

#endif  // KDSEL_PERFBENCH_WORKLOADS_H_
