#include "multitask/event_core.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "reconfig/baselines.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// EWMA smoothing of each PRM's inter-arrival gap (the prefetch trigger).
constexpr double kRateAlpha = 0.5;

struct Slot {
  std::optional<u32> loaded;           ///< PRM configured in the slot
  std::optional<std::size_t> running;  ///< preemptible job in flight
  double free_at = 0;                  ///< when the current work ends
  double busy_exec_s = 0;
};

/// Mutable per-task state, by admission position.
struct Job {
  double remaining_s = 0;
  bool needs_restore = false;  ///< resumes from a saved context
  u32 reschedules = 0;
};

/// Per-PRM switch time and the arrival-rate estimate driving prefetch.
struct PrmState {
  std::optional<std::array<double, 2>> switch_s;  ///< cold [0], warm [1]
  double last_arrival_s = 0;
  double ewma_gap_s = 0;           ///< 0 until two arrivals observed
  double prefetch_ready_s = kInf;  ///< when the warm copy is resident
  bool seen = false;
};

/// A task priced on one slot.
struct Candidate {
  std::size_t slot = 0;
  bool reconfigure = false;
  bool warm = false;
  bool relocate = false;
  double earliest = 0;  ///< when the slot can take the task
  double switch_s = 0;
  double start_s = 0;
  double finish_s = 0;
};

class EventCore {
 public:
  EventCore(const std::vector<PrmInfo>& prms,
            const std::vector<HwTask>& tasks, const CoreConfig& config)
      : prms_(prms),
        tasks_(tasks),
        config_(config),
        controller_(config.controller
                        ? config.controller
                        : std::make_shared<DmaIcapController>(
                              default_icap(Family::kVirtex5))),
        order_(arrival_order(tasks)),
        jobs_(tasks.size()),
        slots_(config.slot_count),
        prm_state_(prms.size()),
        cpu_free_(config.cpu_workers, 0.0) {
    if (config.slot_count == 0) throw ContractError{"zero PRR slots"};
    // Price each PRM the workload uses once, at cold [0] and warm [1]
    // media, so the loop itself makes no controller calls.
    for (const HwTask& task : tasks) {
      if (task.prm >= prms.size()) {
        throw ContractError{"task '" + task.name +
                            "' references unknown PRM " +
                            std::to_string(task.prm)};
      }
      if (prm_state_[task.prm].switch_s) continue;
      auto& cost = prm_state_[task.prm].switch_s.emplace();
      for (const std::size_t warm : {0u, 1u}) {
        cost[warm] =
            controller_->estimate(bytes(task.prm), media(warm == 1)).total_s;
        if (config.fault_rate > 0) {
          cost[warm] =
              expected_retry_cost(cost[warm], config.fault_rate, config.retry)
                  .expected_time_s;
        }
      }
    }
    report_.tasks.resize(tasks.size());
    for (std::size_t pos = 0; pos < order_.size(); ++pos) {
      outcome(pos).task_index = narrow<u32>(order_[pos]);
      jobs_[pos].remaining_s = task(pos).exec_s;
    }
  }

  Report run() {
    while (done_ < order_.size()) {
      admit();
      if (config_.preempt) retire();
      dispatch_ready();
      if (config_.preempt > PreemptMode::kNoPreemption) preempt();
      if (done_ == order_.size()) break;
      advance();
    }
    Report& r = report_;
    double wait = 0, turnaround = 0, busy = 0;
    for (std::size_t i = 0; i < r.tasks.size(); ++i) {
      r.makespan_s = std::max(r.makespan_s, r.tasks[i].finish_s);
      wait += r.tasks[i].wait_s;
      turnaround += r.tasks[i].finish_s - tasks_[i].arrival_s;
    }
    for (const Slot& slot : slots_) busy += slot.busy_exec_s;
    r.completed = r.tasks.size() - r.dropped_tasks;
    const double n = static_cast<double>(r.tasks.size());
    const double ran = static_cast<double>(r.completed);
    if (n > 0) r.mean_wait_s = wait / n;
    if (n > 0) r.mean_turnaround_s = turnaround / n;
    if (ran > 0) r.reconfig_seconds_per_task = r.total_reconfig_s / ran;
    if (r.makespan_s > 0) {
      r.throughput_per_s = ran / r.makespan_s;
      r.prr_busy_fraction =
          busy / (r.makespan_s * static_cast<double>(slots_.size()));
    }
    return std::move(report_);
  }

 private:
  const HwTask& task(std::size_t pos) const { return tasks_[order_[pos]]; }
  TaskOutcome& outcome(std::size_t pos) { return report_.tasks[order_[pos]]; }
  u64 bytes(u32 prm) const { return prms_[prm].bitstream_bytes; }
  StorageMedia media(bool warm) const {
    return warm ? config_.warm_media : config_.cold_media;
  }
  bool idle(const Slot& s) const { return !s.running && s.free_at <= now_; }
  /// The single shared ICAP: configuration traffic serializes on it.
  double reserve_icap(double earliest, double duration) {
    icap_free_at_ = std::max(earliest, icap_free_at_) + duration;
    return icap_free_at_;
  }
  /// First idle slot already holding `prm`, else slots_.size().
  std::size_t idle_holding(u32 prm) const {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (idle(slots_[s]) && slots_[s].loaded == prm) return s;
    }
    return slots_.size();
  }

  void admit() {
    while (next_ < order_.size() && task(next_).arrival_s <= now_) {
      if (config_.prefetch_rate_hz > 0) observe(task(next_));
      ready_.push_back(next_++);
    }
  }

  // The first time a PRM's arrival rate reaches the threshold, its
  // bitstream is staged from cold storage, resident one cold fetch later.
  void observe(const HwTask& arrival) {
    PrmState& rate = prm_state_[arrival.prm];
    const double gap = arrival.arrival_s - rate.last_arrival_s;
    if (rate.seen) {
      rate.ewma_gap_s =
          rate.ewma_gap_s > 0
              ? kRateAlpha * gap + (1 - kRateAlpha) * rate.ewma_gap_s
              : gap;
    }
    rate.seen = true;
    rate.last_arrival_s = arrival.arrival_s;
    if (rate.prefetch_ready_s == kInf && rate.ewma_gap_s > 0 &&
        1.0 / rate.ewma_gap_s >= config_.prefetch_rate_hz) {
      rate.prefetch_ready_s =
          arrival.arrival_s +
          fetch_seconds(config_.cold_media, bytes(arrival.prm));
      ++report_.prefetches_issued;
      if (config_.prefetch_hook) config_.prefetch_hook(arrival.prm);
    }
  }

  void retire() {
    for (Slot& slot : slots_) {
      if (!slot.running || slot.free_at > now_) continue;
      const std::size_t pos = *slot.running;
      slot.running.reset();
      settle(pos, &slot, 0, slot.free_at,
             slot.free_at - task(pos).arrival_s - task(pos).exec_s);
    }
  }

  // Slot-major placement resumes its sweep after the last slot served, so
  // a slot left idle by a dropped task waits for the next sweep.
  void dispatch_ready() {
    const bool sweep = config_.placement == Placement::kSlotMajor;
    std::size_t cursor = 0;
    while (!ready_.empty()) {
      const std::size_t from = sweep ? cursor : 0;
      std::size_t i = 0;
      while (i < slots_.size() && !idle(slots_[(from + i) % slots_.size()])) {
        ++i;
      }
      if (i == slots_.size()) return;
      const std::size_t slot = (from + i) % slots_.size();
      dispatch(take(pick()), slot);
      cursor = slot + 1;
    }
  }

  /// Urgency of a ready task under the policy; lower is more urgent.
  double key(const HwTask& t) const {
    switch (config_.policy) {
      case SchedPolicy::kSjf: return t.exec_s;
      case SchedPolicy::kPriority: return -static_cast<double>(t.priority);
      case SchedPolicy::kEdf: return t.deadline_s > 0 ? t.deadline_s : kInf;
      default: return 0;
    }
  }

  /// Position in ready_ of the earliest entry with the lowest key;
  /// reuse-aware takes the first task whose PRM sits in an idle slot.
  std::size_t pick() const {
    if (config_.policy == SchedPolicy::kReuseAware) {
      for (std::size_t i = 0; i < ready_.size(); ++i) {
        if (idle_holding(task(ready_[i]).prm) < slots_.size()) return i;
      }
      return 0;
    }
    std::size_t best = 0;
    if (config_.policy == SchedPolicy::kFcfs) return best;
    double best_key = key(task(ready_[0]));
    for (std::size_t i = 1; i < ready_.size(); ++i) {
      const double k = key(task(ready_[i]));
      if (k < best_key) {
        best = i;
        best_key = k;
      }
    }
    return best;
  }

  std::size_t take(std::size_t ready_index) {
    const std::size_t pos = ready_[ready_index];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(ready_index));
    return pos;
  }

  Candidate place(std::size_t pos, std::size_t idle_slot) const {
    if (config_.placement == Placement::kEarliestFinish) {
      Candidate best = price(pos, 0);
      for (std::size_t s = 1; s < slots_.size(); ++s) {
        const Candidate candidate = price(pos, s);
        if (candidate.finish_s < best.finish_s) best = candidate;
      }
      return best;
    }
    const std::size_t resident = idle_holding(task(pos).prm);
    const bool reuse = config_.placement == Placement::kResidentFirst;
    return price(pos, reuse && resident < slots_.size() ? resident : idle_slot);
  }

  // A resident PRM starts when the slot frees; anything else also waits
  // for the ICAP and pays the switch at warm or cold media speed.
  Candidate price(std::size_t pos, std::size_t s) const {
    const u32 prm = task(pos).prm;
    Candidate c;
    c.slot = s;
    c.earliest = c.start_s = std::max(now_, slots_[s].free_at);
    if (slots_[s].loaded != prm) {
      c.reconfigure = true;
      const double icap_start = std::max(c.earliest, icap_free_at_);
      c.warm = prm_state_[prm].prefetch_ready_s <= icap_start;
      c.switch_s = (*prm_state_[prm].switch_s)[c.warm ? 1 : 0];
      if (config_.relocation_s > 0 && config_.relocation_s < c.switch_s) {
        for (std::size_t p = 0; p < slots_.size() && !c.relocate; ++p) {
          c.relocate = p != s && slots_[p].loaded == prm;
        }
      }
      if (c.relocate) c.switch_s = config_.relocation_s;
      c.start_s = icap_start + c.switch_s;
    }
    c.finish_s = c.start_s + jobs_[pos].remaining_s;
    return c;
  }

  void dispatch(std::size_t pos, std::size_t idle_slot) {
    const HwTask& t = task(pos);
    const Candidate c = place(pos, idle_slot);
    TaskOutcome& o = outcome(pos);
    if (config_.cpu_workers > 0 && t.deadline_s > 0 &&
        c.finish_s > t.deadline_s) {
      // CPU fallback on the earliest-free worker.
      const auto worker = std::min_element(cpu_free_.begin(), cpu_free_.end());
      o.cpu_fallback = true;
      o.slot = narrow<u32>(worker - cpu_free_.begin());
      const double start = std::max(now_, *worker);
      *worker = start + t.exec_s * config_.cpu_slowdown;
      ++report_.cpu_fallbacks;
      return settle(pos, nullptr, start, *worker, start - t.arrival_s);
    }
    Slot& slot = slots_[c.slot];
    o.slot = narrow<u32>(c.slot);
    double switch_s = c.switch_s;
    double start = c.start_s;
    if (c.reconfigure && config_.faults != nullptr && !c.relocate) {
      const TransferOutcome xfer =
          verified_transfer(*controller_, bytes(t.prm), media(c.warm),
                            config_.faults, config_.retry);
      start = reserve_icap(c.earliest, xfer.total_s);
      if (!book(pos, slot, xfer, start)) return;
      switch_s = xfer.total_s;
    } else if (c.reconfigure) {
      start = reserve_icap(c.earliest, switch_s);
    }
    if (!c.reconfigure) {
      ++report_.reuse_hits;
    } else if (c.relocate) {
      report_.total_relocation_s += switch_s;
      ++report_.relocation_count;
    } else {
      report_.reconfig_bytes += bytes(t.prm);
      report_.total_reconfig_s += switch_s;
      ++report_.reconfig_count;
      if (c.warm) ++report_.prefetched_reconfigs;
    }
    slot.loaded = t.prm;
    Job& job = jobs_[pos];
    if (job.needs_restore) {
      start = std::max(start, reserve_icap(now_, config_.context_restore_s));
      report_.total_save_restore_s += config_.context_restore_s;
      job.needs_restore = false;
    }
    slot.free_at = start + job.remaining_s;
    if (config_.preempt) {
      // A preemptible job may load several times: it keeps its first
      // start and is settled when it retires.
      slot.running = pos;
      if (o.start_s == 0) o.start_s = start;
      return;
    }
    o.reconfigured = c.reconfigure;
    o.prefetched = c.reconfigure && c.warm;
    o.reconfig_s = switch_s;
    settle(pos, &slot, start, slot.free_at, start - t.arrival_s);
  }

  // Fault ledger for one verified transfer (it held the ICAP until `end`).
  // A permanent failure leaves the slot undefined; re-queue or drop.
  bool book(std::size_t pos, Slot& slot, const TransferOutcome& xfer,
            double end) {
    outcome(pos).reconfig_attempts += xfer.attempts;
    report_.retry_attempts += xfer.attempts - 1;
    report_.total_retry_backoff_s += xfer.backoff_s;
    report_.total_fault_wasted_s += xfer.wasted_s;
    if (xfer.success) return true;
    ++report_.failed_reconfigs;
    slot.loaded.reset();
    if (config_.recovery == FaultRecovery::kReschedule &&
        jobs_[pos].reschedules < config_.max_reschedules) {
      ++jobs_[pos].reschedules;
      ++report_.rescheduled_tasks;
      ready_.push_back(pos);
      return false;
    }
    outcome(pos).dropped = true;
    ++report_.dropped_tasks;
    report_.total_penalty_s += config_.drop_penalty_s;
    settle(pos, nullptr, end, end, end - task(pos).arrival_s);
    return false;
  }

  // The outcome is final. Preemptible jobs keep their first start.
  void settle(std::size_t pos, Slot* slot, double start, double finish,
              double wait) {
    const HwTask& t = task(pos);
    TaskOutcome& o = outcome(pos);
    if (!config_.preempt) o.start_s = start;
    o.finish_s = finish;
    o.wait_s = wait;
    o.deadline_miss = t.deadline_s > 0 && finish > t.deadline_s;
    if (o.deadline_miss) ++report_.deadline_misses;
    if (slot != nullptr) slot->busy_exec_s += t.exec_s;
    ++done_;
  }

  // The most urgent ready job evicts the least urgent running one that is
  // strictly less urgent (the first such slot on ties).
  void preempt() {
    while (!ready_.empty()) {
      const std::size_t best = pick();
      std::size_t victim = slots_.size();
      u32 lowest = task(ready_[best]).priority;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s].running && task(*slots_[s].running).priority < lowest) {
          victim = s;
          lowest = task(*slots_[s].running).priority;
        }
      }
      if (victim == slots_.size()) return;
      const std::size_t pos = take(best);
      Slot& slot = slots_[victim];
      const std::size_t evicted = *slot.running;
      slot.running.reset();
      ++report_.preemptions;
      Job& job = jobs_[evicted];
      if (config_.preempt == PreemptMode::kSaveRestore) {
        reserve_icap(now_, config_.context_save_s);
        report_.total_save_restore_s += config_.context_save_s;
        job.remaining_s = std::max(0.0, slot.free_at - now_);
        job.needs_restore = true;
      } else {
        job.remaining_s = task(evicted).exec_s;  // lost work
      }
      slot.free_at = now_;
      ready_.push_back(evicted);
      dispatch(pos, victim);
    }
  }

  // Next instant: an arrival, or a slot release that matters - a running
  // job's completion, or any release while run-to-completion work waits.
  void advance() {
    double next = next_ < order_.size() ? task(next_).arrival_s : kInf;
    for (const Slot& slot : slots_) {
      if (config_.preempt ? slot.running.has_value() : !ready_.empty()) {
        next = std::min(next, slot.free_at);
      }
    }
    if (!std::isfinite(next)) throw ContractError{"deadlocked schedule"};
    now_ = std::max(now_, next);
  }

  const std::vector<PrmInfo>& prms_;
  const std::vector<HwTask>& tasks_;
  const CoreConfig& config_;
  const std::shared_ptr<const ReconfigController> controller_;
  const std::vector<std::size_t> order_;  ///< admission pos -> input index
  std::vector<Job> jobs_;
  std::vector<Slot> slots_;
  std::vector<PrmState> prm_state_;
  std::vector<double> cpu_free_;
  std::vector<std::size_t> ready_;  ///< admission positions
  double icap_free_at_ = 0;
  Report report_;
  std::size_t next_ = 0;  ///< next admission position
  std::size_t done_ = 0;  ///< settled tasks
  double now_ = 0;
};

}  // namespace

Report run_event_core(const std::vector<PrmInfo>& prms,
                      const std::vector<HwTask>& tasks,
                      const CoreConfig& config) {
  return EventCore{prms, tasks, config}.run();
}

}  // namespace prcost
