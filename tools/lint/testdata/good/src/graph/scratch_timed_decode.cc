// Clean: batch decode into a worker-local scratch arena, timed through
// util/timer.h so the measurement can feed a latency histogram — no raw
// clocks, no raw locks.
#include <cstdint>

#include "parallel/scratch.h"
#include "util/timer.h"

double TimedBatchDecode(uint64_t block_len) {
  lightne::ScratchArena::Scope scratch(
      lightne::ScratchArena::ForCurrentThread());
  uint32_t* block = scratch.AllocArray<uint32_t>(block_len);
  lightne::Timer timer;
  for (uint64_t i = 0; i < block_len; ++i) block[i] = static_cast<uint32_t>(i);
  return timer.Seconds() * 1e6;
}
