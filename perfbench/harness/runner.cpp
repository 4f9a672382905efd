// Closed-loop pass runner: caller threads pull positions from one counter,
// issue the request, time it, and check the answer.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "bitstream/bitstream_cache.hpp"
#include "cost/plan_cache.hpp"

namespace prbench {
namespace {

// Below kExactBelow a bucket is one ns wide. Above, a value with bit
// width b falls in group b - kSubBits (groups 2..24 for 32-bit values),
// split into 1 << kSubBits buckets by its top kSubBits + 1 bits.
constexpr u32 kSubBits = 9;
constexpr u64 kExactBelow = u64{2} << kSubBits;
constexpr std::size_t kBuckets = std::size_t{32 - kSubBits + 1} << kSubBits;

std::size_t bucket_of(u64 ns) {
  if (ns < kExactBelow) return static_cast<std::size_t>(ns);
  const auto shift = static_cast<u32>(std::bit_width(ns)) - (kSubBits + 1);
  return (std::size_t{shift} << kSubBits) +
         static_cast<std::size_t>(ns >> shift);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::add(u64 ns) {
  ns = std::min<u64>(ns, std::numeric_limits<u32>::max());
  ++counts_[bucket_of(ns)];
  ++count_;
  sum_ns_ += ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  const u64 rank = std::max<u64>(
      1, static_cast<u64>(std::ceil(q * static_cast<double>(count_))));
  u64 below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const u64 here = counts_[i];
    if (below + here < rank) {
      below += here;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1;
    if (i >= kExactBelow) {
      const std::size_t shift = (i >> kSubBits) - 1;
      lower = static_cast<double>((i - (shift << kSubBits)) << shift);
      width = static_cast<double>(std::size_t{1} << shift);
    }
    return lower + width * (static_cast<double>(rank - below) - 0.5) /
                       static_cast<double>(here);
  }
  return 0;
}

PassResult run_pass(const Workload& workload, const std::vector<u32>& order,
                    Checker& checker, u32 callers, const Issue& issue,
                    const PassLimit& limit) {
  // A continuous pass is one round without an end; a cold-round pass
  // issues `order` once per round. The callers stay alive across rounds
  // and meet at a barrier whose completion step (run by one thread, off
  // the pass clock) closes the round, decides whether to go on, and clears
  // the caches for the next one.
  const bool rounds = workload.cold_rounds;
  const u64 round_size =
      rounds ? order.size() : std::numeric_limits<u64>::max();
  const u64 total = limit.exact != 0 ? limit.exact
                                     : std::numeric_limits<u64>::max();
  const u32 windows = limit.exact == 0 ? kWindows : 1;
  const u64 window_ns =
      limit.exact == 0 ? static_cast<u64>(limit.seconds * 1e9 / kWindows)
                       : std::numeric_limits<u64>::max();
  std::atomic<u64> next{0};
  u64 round_end = std::min(round_size, total);
  u64 round_start_ns = 0;
  u64 wall_ns = 0;
  u64 deadline_ns = 0;  // continuous passes only
  bool stop = false;

  const auto begin_round = [&] {
    if (rounds) {
      prcost::plan_cache_clear();
      prcost::bitstream_cache_clear();
    }
    round_start_ns = now_ns();
  };
  const auto end_round = [&]() noexcept {
    wall_ns += now_ns() - round_start_ns;
    const u64 issued = std::min(next.load(), round_end);
    const bool enough =
        limit.exact != 0
            ? issued >= total
            : (!rounds || (static_cast<double>(wall_ns) * 1e-9 >=
                               limit.seconds &&
                           issued >= limit.min_requests));
    if (enough) {
      stop = true;
      return;
    }
    next.store(issued);
    round_end = std::min(issued + round_size, total);
    begin_round();
  };
  std::barrier sync{static_cast<std::ptrdiff_t>(callers), end_round};

  begin_round();
  if (!rounds && limit.exact == 0) {
    deadline_ns = round_start_ns + static_cast<u64>(limit.seconds * 1e9);
  }
  std::vector<PassResult> partial(callers);
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (u32 caller = 0; caller < callers; ++caller) {
    threads.emplace_back([&, caller] {
      PassResult& mine = partial[caller];
      mine.latency.resize(windows);
      mine.succeeded_in.resize(windows);
      while (!stop) {
        for (;;) {
          const u64 position = next.fetch_add(1);
          if (position >= round_end) break;
          // Past the deadline (with the minimum issued) a caller stops.
          // Positions are taken in order, so the issued set is a prefix.
          if (deadline_ns != 0 && position >= limit.min_requests &&
              now_ns() >= deadline_ns) {
            break;
          }
          const u32 index = order[position % order.size()];
          std::string answer;
          bool threw = false;
          const u64 start = now_ns();
          try {
            answer = issue(caller, position);
          } catch (const std::exception&) {
            threw = true;
          }
          const u64 done = now_ns();
          ++mine.sent;
          const bool ok = !threw && checker.check(index, answer);
          ++(ok ? mine.succeeded : mine.failed);
          const u64 at = wall_ns + (done - round_start_ns);
          const auto w = static_cast<std::size_t>(
              std::min<u64>(at / std::max<u64>(window_ns, 1), windows - 1));
          mine.latency[w].add(done - start);
          if (ok) ++mine.succeeded_in[w];
        }
        if (!rounds) break;
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (!rounds) wall_ns = now_ns() - round_start_ns;

  PassResult out;
  out.wall_s = static_cast<double>(wall_ns) * 1e-9;
  out.window_s = limit.exact == 0 ? limit.seconds / kWindows : out.wall_s;
  out.latency.resize(windows);
  out.succeeded_in.resize(windows);
  for (const PassResult& part : partial) {
    out.sent += part.sent;
    out.succeeded += part.succeeded;
    out.failed += part.failed;
    for (u32 w = 0; w < windows; ++w) {
      out.latency[w].merge(part.latency[w]);
      out.succeeded_in[w] += part.succeeded_in[w];
    }
  }
  return out;
}

LatencyHistogram PassResult::all_latencies() const {
  LatencyHistogram out;
  for (const LatencyHistogram& window : latency) out.merge(window);
  return out;
}

}  // namespace prbench
