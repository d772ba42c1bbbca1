#include "src/sim/sm_core.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "src/common/bitutils.hpp"
#include "src/common/contracts.hpp"
#include "src/sim/error.hpp"
#include "src/sim/trace_run.hpp"
#include "src/spec/predictor.hpp"

namespace st2::sim {

using isa::Instruction;
using isa::Opcode;
using isa::UnitClass;

void validate_admissible(const GpuConfig& cfg, const isa::Kernel& kernel,
                         const SmWorkload& work) {
  if (work.blocks.empty()) return;
  if (cfg.max_blocks_per_sm < 1) {
    throw SimError(SimErrorKind::kInadmissibleLaunch,
                   "kernel '" + kernel.name + "'",
                   "max_blocks_per_sm is " +
                       std::to_string(cfg.max_blocks_per_sm) +
                       "; no block can ever be admitted");
  }
  if (kernel.shared_bytes > cfg.shared_mem_per_sm) {
    throw SimError(SimErrorKind::kInadmissibleLaunch,
                   "kernel '" + kernel.name + "'",
                   "a block needs " + std::to_string(kernel.shared_bytes) +
                       " bytes of shared memory but the SM has " +
                       std::to_string(cfg.shared_mem_per_sm) +
                       "; the launch can never be admitted");
  }
  for (const BlockWork& bw : work.blocks) {
    const int warps = static_cast<int>(bw.warps.size());
    if (warps > cfg.max_warps_per_sm) {
      throw SimError(SimErrorKind::kInadmissibleLaunch,
                     "kernel '" + kernel.name + "'",
                     "block " + std::to_string(bw.block_flat) + " needs " +
                         std::to_string(warps) +
                         " warp slots but the SM has " +
                         std::to_string(cfg.max_warps_per_sm) +
                         " (max_warps_per_sm); the launch can never be "
                         "admitted");
    }
  }
}

SmCore::SmCore(const GpuConfig& cfg, const isa::Kernel& kernel,
               const SmWorkload& work)
    : cfg_(cfg),
      kernel_(kernel),
      work_(work),
      l1_(cfg.l1_kb, cfg.l1_ways, cfg.line_bytes),
      l2_(cfg.l2_kb, cfg.l2_ways, cfg.line_bytes),
      crf_(spec::make_predictor(cfg.predictor, cfg.seed)),
      fu_busy_(static_cast<std::size_t>(cfg.schedulers_per_sm * kNumFuKinds),
               0),
      fu_st2_from_(
          static_cast<std::size_t>(cfg.schedulers_per_sm * kNumFuKinds), 0),
      last_issued_(static_cast<std::size_t>(cfg.schedulers_per_sm), -1) {
  validate_admissible(cfg, kernel, work);
  if (cfg.inject.enabled()) {
    // Decorrelate the fault stream across SMs: blocks dispatch round-robin
    // (block b -> SM b % num_sms), so the first block's flat id identifies
    // this SM's workload deterministically — a pure function of the capture,
    // not of thread schedule — while identical seeds on every SM would fire
    // the same faults at the same draw indices chip-wide.
    fault::FaultConfig fc = cfg.inject;
    const std::uint64_t salt =
        static_cast<std::uint64_t>(work.blocks.front().block_flat) + 1;
    fc.seed ^= salt * 0x9e3779b97f4a7c15ULL;
    inject_.emplace(fc);
  }

  // --- slot banks and packed masks ------------------------------------------
  const auto n_slots = static_cast<std::size_t>(cfg.max_warps_per_sm);
  mask_words_ = static_cast<int>((n_slots + 63) / 64);
  if (mask_words_ == 0) mask_words_ = 1;
  active_bits_.assign(static_cast<std::size_t>(mask_words_), 0);
  barrier_bits_.assign(static_cast<std::size_t>(mask_words_), 0);
  // Static scheduler ownership: slot w belongs to scheduler w % schedulers.
  sched_bits_.assign(static_cast<std::size_t>(cfg.schedulers_per_sm) *
                         static_cast<std::size_t>(mask_words_),
                     0);
  for (int w = 0; w < cfg.max_warps_per_sm; ++w) {
    const int s = w % cfg.schedulers_per_sm;
    sched_bits_[static_cast<std::size_t>(s) *
                    static_cast<std::size_t>(mask_words_) +
                static_cast<std::size_t>(w >> 6)] |= std::uint64_t{1}
                                                     << (w & 63);
  }
  slot_stream_.assign(n_slots, nullptr);
  slot_ops_.assign(n_slots, nullptr);
  slot_cursor_.assign(n_slots, 0);
  slot_len_.assign(n_slots, 0);
  slot_resident_.assign(n_slots, -1);
  slot_ready_hint_.assign(n_slots, 0);
  slot_ready_hint_base_.assign(n_slots, 0);
  reg_ready_.assign(n_slots * static_cast<std::size_t>(kernel.regs_used), 0);
  reg_st2_extra_.assign(n_slots * static_cast<std::size_t>(kernel.regs_used),
                        0);
  pred_ready_.assign(n_slots * static_cast<std::size_t>(isa::kNumPredRegs),
                     0);

  // Precompute the per-PC scheduling facts once; the readiness polls run
  // every cycle for every warp and must not re-derive them.
  static_.reserve(kernel.code.size());
  for (const Instruction& in : kernel.code) {
    StaticInfo si;
    si.deps = deps_of(in);
    si.timing = op_timing(cfg, in.op);
    si.unit = isa::unit_class(in.op);
    si.fu = fu_of(si.unit);
    si.is_bar = in.op == Opcode::kBar;
    si.is_atomic =
        in.op == Opcode::kAtomAddGlobal || in.op == Opcode::kAtomAddShared;
    if (cfg.model_rf_bank_conflicts) {
      // Operand collection: sources mapping to the same register-file bank
      // serialize, extending collection by one cycle per extra access.
      int per_bank[32] = {};
      int worst = 0;
      for (int r : si.deps.reads) {
        if (r < 0) continue;
        int& count = per_bank[r % cfg.regfile_banks];
        worst = std::max(worst, ++count);
      }
      if (worst > 1) si.rf_conflict_extra = worst - 1;
    }
    static_.push_back(si);
  }

  // Counter interning support: the visit-position -> address table is built
  // eagerly (cheap), the per-(pc, variant) programs lazily on first issue —
  // most PCs only ever run one flag variant, and an SM's kernel may be far
  // larger than the code its blocks execute.
  counter_slots_.reserve(64);
  for_each_counter(counters_, [this](const char*, std::uint64_t& v) {
    counter_slots_.push_back(&v);
  });
  counter_prog_.assign(kernel.code.size() * 4, CounterProgram{});

  resident_.reserve(static_cast<std::size_t>(cfg.max_blocks_per_sm));
  admit_blocks();
}

void SmCore::build_counter_program(std::uint32_t pc, int variant,
                                   CounterProgram& cp) const {
  // Intern the instruction-mix accounting for (pc, writes_reg, is_shared)
  // by differential evaluation of count_instruction: with one active thread
  // the deltas are per_thread + per_warp, with two they are 2*per_thread +
  // per_warp, so two synthetic records solve for both components exactly.
  // count_instruction stays the single source of truth; the interned program
  // cannot drift from it.
  ExecRecord rec;
  rec.instr = &kernel_.code[pc];
  rec.pc = pc;
  rec.unit = static_[pc].unit;
  rec.writes_reg = (variant & 1) != 0;
  rec.is_shared = (variant & 2) != 0;
  EventCounters c1{};
  EventCounters c2{};
  rec.active_mask = 0x1;
  count_instruction(rec, c1);
  rec.active_mask = 0x3;
  count_instruction(rec, c2);
  const std::size_t n_counters = counter_slots_.size();
  std::vector<std::uint64_t> v1(n_counters);
  std::vector<std::uint64_t> v2(n_counters);
  std::size_t k = 0;
  for_each_counter(c1,
                   [&](const char*, const std::uint64_t& x) { v1[k++] = x; });
  k = 0;
  for_each_counter(c2,
                   [&](const char*, const std::uint64_t& x) { v2[k++] = x; });
  cp.n = 0;
  for (std::size_t idx = 0; idx < n_counters; ++idx) {
    const std::uint64_t per_thread = v2[idx] - v1[idx];
    const std::uint64_t per_warp = v1[idx] - per_thread;
    if (per_thread == 0 && per_warp == 0) continue;
    ST2_ASSERT(cp.n < static_cast<int>(cp.entries.size()));
    ST2_ASSERT(per_thread <= 0xffff && per_warp <= 0xffff);
    cp.entries[static_cast<std::size_t>(cp.n++)] = CounterProgram::Entry{
        static_cast<std::uint16_t>(idx), static_cast<std::uint16_t>(per_thread),
        static_cast<std::uint16_t>(per_warp)};
  }
}

bool SmCore::admit_blocks() {
  bool admitted = false;
  while (next_block_ < work_.blocks.size()) {
    if (live_blocks_ >= cfg_.max_blocks_per_sm) break;
    if (kernel_.shared_bytes > 0 &&
        (live_blocks_ + 1) * kernel_.shared_bytes > cfg_.shared_mem_per_sm) {
      break;
    }
    const BlockWork& bw = work_.blocks[next_block_];
    const int warps_needed = static_cast<int>(bw.warps.size());
    // Find free warp slots, lowest ids first (zero bits of the active mask).
    std::vector<int>& slots = slot_scratch_;
    slots.clear();
    for (int word = 0;
         word < mask_words_ && static_cast<int>(slots.size()) < warps_needed;
         ++word) {
      std::uint64_t free = ~active_bits_[static_cast<std::size_t>(word)];
      if (word == mask_words_ - 1) {
        free &= low_mask(cfg_.max_warps_per_sm - (word << 6));
      }
      while (free != 0 && static_cast<int>(slots.size()) < warps_needed) {
        slots.push_back((word << 6) + std::countr_zero(free));
        free &= free - 1;
      }
    }
    if (static_cast<int>(slots.size()) < warps_needed) break;

    int res_idx = -1;
    for (std::size_t i = 0; i < resident_.size(); ++i) {
      if (resident_[i].work_idx < 0) {
        res_idx = static_cast<int>(i);
        break;
      }
    }
    if (res_idx < 0) {
      resident_.emplace_back();
      res_idx = static_cast<int>(resident_.size()) - 1;
    }
    Resident& rb = resident_[static_cast<std::size_t>(res_idx)];
    rb.work_idx = static_cast<int>(next_block_);
    rb.live_warps = warps_needed;
    rb.warps_at_barrier = 0;

    const auto regs = static_cast<std::size_t>(kernel_.regs_used);
    for (int wi = 0; wi < warps_needed; ++wi) {
      const int w = slots[static_cast<std::size_t>(wi)];
      const auto ws = static_cast<std::size_t>(w);
      const WarpStream& stream = bw.warps[static_cast<std::size_t>(wi)];
      slot_stream_[ws] = &stream;
      slot_ops_[ws] = stream.ops.data();
      slot_len_[ws] = static_cast<std::uint32_t>(stream.ops.size());
      slot_cursor_[ws] = 0;
      slot_resident_[ws] = res_idx;
      slot_ready_hint_[ws] = 0;
      slot_ready_hint_base_[ws] = 0;
      std::fill_n(reg_ready_.begin() + static_cast<std::ptrdiff_t>(ws * regs),
                  regs, std::uint64_t{0});
      std::fill_n(
          reg_st2_extra_.begin() + static_cast<std::ptrdiff_t>(ws * regs),
          regs, std::uint8_t{0});
      std::fill_n(pred_ready_.begin() +
                      static_cast<std::ptrdiff_t>(
                          ws * static_cast<std::size_t>(isa::kNumPredRegs)),
                  static_cast<std::size_t>(isa::kNumPredRegs),
                  std::uint64_t{0});
      set_mask_bit(active_bits_, w);
      clear_mask_bit(barrier_bits_, w);
    }
    ++next_block_;
    ++live_blocks_;
    admitted = true;
  }
  if (admitted) {
    admitted_midcycle_ = true;
    ++topo_gen_;
  }
  return admitted;
}

void SmCore::skip_idle_cycles() {
  // Event-driven fast-forward. After a cycle in which no scheduler issued,
  // every active non-barrier warp was polled, so its scoreboard hint is
  // *exact* (the scoreboard is warp-private: reg_ready can only change when
  // the warp itself issues). A dep-ready warp that still failed is waiting
  // on its functional unit, whose busy-until time is also known. Nothing
  // observable can happen before the earliest of those wake times and the
  // next pending CRF write-back (which must commit on its exact cycle so
  // the write-arbitration RNG draws group identically), so jump straight
  // there and charge the gap as idle cycles. Bit-identical to stepping.
  if (admitted_midcycle_) return;  // fresh warps were not polled this cycle
  std::uint64_t wake = ~0ULL;
  for (int word = 0; word < mask_words_; ++word) {
    const auto wi = static_cast<std::size_t>(word);
    std::uint64_t m = active_bits_[wi] & ~barrier_bits_[wi];
    while (m != 0) {
      const int w = (word << 6) + std::countr_zero(m);
      m &= m - 1;
      const auto ws = static_cast<std::size_t>(w);
      if (slot_cursor_[ws] >= slot_len_[ws]) return;  // retires next poll
      std::uint64_t t = slot_ready_hint_[ws];
      if (t <= now_) {
        // Deps are met; the warp is waiting for its functional unit.
        const int sched = w % cfg_.schedulers_per_sm;
        const TraceOp& op = slot_ops_[ws][slot_cursor_[ws]];
        t = fu(sched, static_[op.pc].fu);
        if (t <= now_) return;  // looks issuable: never skip past it
      }
      wake = std::min(wake, t);
    }
  }
  // Earliest pending CRF write-back (exact watermark, ~0 when none).
  wake = std::min(wake, crf_due_min_);
  if (wake == ~0ULL || wake <= now_) return;
  // Attribute the skipped scheduler-cycles before jumping: warp states are
  // frozen across the gap (it ends at the earliest wake time), so one
  // classification covers every cycle in [now_, wake).
  for (int s = 0; s < cfg_.schedulers_per_sm; ++s) {
    attribute_stall(s, now_, wake);
  }
  counters_.sm_idle_cycles += wake - now_;
  now_ = wake;
}

void SmCore::attribute_stall(int sched, std::uint64_t start,
                             std::uint64_t end) {
  // Charges the scheduler-cycles [start, end) of a non-issuing scheduler to
  // exactly one cause each. Among the scheduler's warps the cause closest to
  // an issue wins: empty < barrier < dependency < structural. On top of
  // that, any cycle where some warp is held back *only* by an ST2 repair
  // cycle — its scoreboard deps or its functional unit would already be free
  // without the +1 — is charged to ST2 recovery. Within a skip_idle_cycles
  // gap every warp's status is constant (the gap ends at the first wake
  // time), and ST2 tails are by construction the final cycles before a wake,
  // so they fold into one suffix [st2_from, end). Counter-only bookkeeping:
  // reads warp state, writes nothing but counters_.
  int best = kStallEmpty;
  std::uint64_t st2_from = end;
  for (int word = 0; word < mask_words_; ++word) {
    const auto wi = static_cast<std::size_t>(word);
    const std::uint64_t owned =
        active_bits_[wi] &
        sched_bits_[static_cast<std::size_t>(sched) *
                        static_cast<std::size_t>(mask_words_) +
                    wi];
    // Warps parked at a barrier contribute exactly kStallBarrier, in bulk.
    if ((owned & barrier_bits_[wi]) != 0) best = std::max(best, +kStallBarrier);
    std::uint64_t m = owned & ~barrier_bits_[wi];
    while (m != 0) {
      const int w = (word << 6) + std::countr_zero(m);
      m &= m - 1;
      const auto ws = static_cast<std::size_t>(w);
      if (slot_cursor_[ws] >= slot_len_[ws]) continue;  // retiring
      if (slot_ready_hint_[ws] > start) {
        // Scoreboard stall; the hint pair is exact (set at the last poll).
        best = std::max(best, +kStallDependency);
        if (slot_ready_hint_base_[ws] < slot_ready_hint_[ws] &&
            slot_ready_hint_base_[ws] < end) {
          st2_from =
              std::min(st2_from, std::max(start, slot_ready_hint_base_[ws]));
        }
      } else {
        // Deps are met, so the warp can only be waiting on its functional
        // unit (the scheduler polled it this cycle and did not issue).
        const TraceOp& op = slot_ops_[ws][slot_cursor_[ws]];
        const FuKind k = static_[op.pc].fu;
        best = std::max(best, +kStallStructural);
        const std::uint64_t tail = fu_st2_from(sched, k);
        if (tail < fu(sched, k) && tail < end) {
          st2_from = std::min(st2_from, std::max(start, tail));
        }
      }
    }
  }
  counters_.stall_st2_recovery_cycles += end - st2_from;
  const std::uint64_t rest = st2_from - start;
  switch (best) {
    case kStallStructural: counters_.stall_structural_cycles += rest; break;
    case kStallDependency: counters_.stall_dependency_cycles += rest; break;
    case kStallBarrier: counters_.stall_barrier_cycles += rest; break;
    default: counters_.stall_empty_cycles += rest; break;
  }
}

void SmCore::attribute_scanned(int sched) {
  // Single-cycle attribute_stall([now_, now_+1)) fed by the notes the failed
  // scan just took: the scan polled exactly the candidate set the rescan
  // would walk, so only the barrier warps (never candidates) are left to
  // fold in, by mask. Same classification, no second pass over the warps.
  int best = scan_best_;
  for (int word = 0; word < mask_words_; ++word) {
    const auto wi = static_cast<std::size_t>(word);
    const std::uint64_t owned_barrier =
        barrier_bits_[wi] &
        sched_bits_[static_cast<std::size_t>(sched) *
                        static_cast<std::size_t>(mask_words_) +
                    wi];
    if (owned_barrier != 0) {
      best = std::max(best, +kStallBarrier);
      break;
    }
  }
  if (scan_st2_) {
    // A warp held back only by an ST2 repair cycle overrides every other
    // cause — exactly the st2_from = start case of the full rescan.
    ++counters_.stall_st2_recovery_cycles;
    return;
  }
  switch (best) {
    case kStallStructural: ++counters_.stall_structural_cycles; break;
    case kStallDependency: ++counters_.stall_dependency_cycles; break;
    case kStallBarrier: ++counters_.stall_barrier_cycles; break;
    default: ++counters_.stall_empty_cycles; break;
  }
}

bool SmCore::warp_ready(int w, const TraceOp** out_op) {
  // Callers guarantee the slot is active and not at a barrier (candidate
  // mask membership); this poll only resolves readiness.
  const auto ws = static_cast<std::size_t>(w);
  if (slot_ready_hint_[ws] > now_) return false;  // known-stalled
  const std::uint32_t cursor = slot_cursor_[ws];
  if (cursor == slot_len_[ws]) {
    // Retire the warp.
    clear_mask_bit(active_bits_, w);
    ++topo_gen_;
    Resident& rb = resident_[static_cast<std::size_t>(slot_resident_[ws])];
    if (--rb.live_warps == 0) {
      rb.work_idx = -1;
      --live_blocks_;
      admit_blocks();
    } else if (rb.warps_at_barrier == rb.live_warps) {
      // The retiring warp was the last one NOT at the barrier (warps whose
      // remaining trace ends before a barrier exit early): the block is now
      // ripe for release.
      ++barrier_ripe_;
    }
    return false;
  }
  const TraceOp& op = slot_ops_[ws][cursor];
  const Deps& d = static_[op.pc].deps;
  const std::uint64_t* regs =
      reg_ready_.data() + ws * static_cast<std::size_t>(kernel_.regs_used);
  const std::uint64_t* preds =
      pred_ready_.data() + ws * static_cast<std::size_t>(isa::kNumPredRegs);
  std::uint64_t ready = 0;
  for (int r : d.reads) {
    if (r >= 0) ready = std::max(ready, regs[static_cast<std::size_t>(r)]);
  }
  for (int p : d.preds) {
    if (p >= 0) ready = std::max(ready, preds[static_cast<std::size_t>(p)]);
  }
  if (d.write_reg >= 0) {  // WAW
    ready =
        std::max(ready, regs[static_cast<std::size_t>(d.write_reg)]);
  }
  if (ready > now_) {
    // The op cannot issue before every dep retires; remember when that is,
    // plus the counterfactual point with the producers' ST2 repair cycles
    // subtracted (stall attribution charges the difference to ST2, not to
    // the dependency). Second pass only on the stall path, so ready polls
    // stay as cheap as before.
    const std::uint8_t* extras =
        reg_st2_extra_.data() +
        ws * static_cast<std::size_t>(kernel_.regs_used);
    std::uint64_t base = 0;
    for (int r : d.reads) {
      if (r >= 0) {
        base = std::max(base, regs[static_cast<std::size_t>(r)] -
                                  extras[static_cast<std::size_t>(r)]);
      }
    }
    for (int p : d.preds) {
      if (p >= 0) {
        base = std::max(base, preds[static_cast<std::size_t>(p)]);
      }
    }
    if (d.write_reg >= 0) {
      base = std::max(base,
                      regs[static_cast<std::size_t>(d.write_reg)] -
                          extras[static_cast<std::size_t>(d.write_reg)]);
    }
    slot_ready_hint_[ws] = ready;
    slot_ready_hint_base_[ws] = base;
    return false;
  }
  *out_op = &op;
  return true;
}

int SmCore::mem_latency(const WarpStream& ws, const TraceOp& op, bool atomic,
                        int* occupancy) {
  *occupancy = cfg_.mem_interval;
  if (op.is_shared()) {
    // smem_accesses itself is counted by count_instruction at issue (shared
    // with trace mode — counting it here too double-charged smem energy).
    counters_.mem_lat_smem_cycles +=
        static_cast<std::uint64_t>(cfg_.shared_latency);
    return cfg_.shared_latency;
  }
  // The capture pass already coalesced the active lanes into unique cache
  // lines (first-touch order preserved, so LRU state replays identically).
  const int n = op.mem_lines;
  bool any_l1_miss = false;
  bool any_l2_miss = false;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t addr =
        ws.lines[op.payload + static_cast<std::size_t>(i)] *
        static_cast<unsigned>(cfg_.line_bytes);
    ++counters_.l1_accesses;
    const bool l1_hit = l1_.access(addr, op.is_store());
    if (!l1_hit) {
      ++counters_.l1_misses;
      ++counters_.l2_accesses;
      counters_.noc_flits += 2;  // request + response across the crossbar
      const bool l2_hit = l2_.access(addr, op.is_store());
      if (!l2_hit) {
        ++counters_.l2_misses;
        ++counters_.dram_accesses;
        any_l2_miss = true;
      }
      any_l1_miss = true;
    }
  }
  *occupancy = cfg_.mem_interval * std::max(1, n);
  // Latency attribution by the deepest level the instruction touched —
  // counter-only, charging exactly the latency returned to the scoreboard.
  const auto charge = [&](int lat) {
    std::uint64_t& bucket = any_l2_miss   ? counters_.mem_lat_dram_cycles
                            : any_l1_miss ? counters_.mem_lat_l2_cycles
                                          : counters_.mem_lat_l1_cycles;
    bucket += static_cast<std::uint64_t>(lat);
    return lat;
  };
  if (atomic) {
    // Read-modify-write at the memory partition; contending lanes on one
    // line serialize there, which the per-line transaction count plus the
    // L2 round trip approximates.
    return charge(cfg_.l1_latency + cfg_.l2_latency / 2 +
                  (n - 1) * cfg_.mem_interval);
  }
  if (op.is_store()) {
    // Fire-and-forget write-through; the store unit hides the latency.
    return charge(cfg_.mem_interval);
  }
  int lat = cfg_.l1_latency;
  if (any_l1_miss) lat += cfg_.l2_latency;
  if (any_l2_miss) lat += cfg_.dram_latency;
  lat += (n - 1) * cfg_.mem_interval;  // transaction serialization
  return charge(lat);
}

int SmCore::speculate(const WarpStream& ws, const TraceOp& op, int latency) {
  // ST2 carry speculation for one warp adder instruction against this SM's
  // CRF. Returns the number of extra cycles (0 or 1).
  //
  // Fault hooks (src/fault; off by default): every selection for this
  // instruction is drawn up front so the injector's RNG advances as a pure
  // function of the replay stream, keeping fault placement bit-identical
  // across --jobs N. Injected faults can only perturb prediction *history*
  // and the detector — the repaired result is always the ground-truth carry
  // pattern from capture, which is the paper's safe-by-construction claim.
  int flip_lane = -1;   // transient history-read flip target
  int flip_bit = 0;
  int force_lane = -1;  // forced-mispredict detector fault target
  int mask_lane = -1;   // forced-hit (masked repair) detector fault target
  if (inject_) {
    if (inject_->fire_crf()) {
      crf_->flip_bit(op.pc, inject_->pick(spec::CarryRegisterFile::kLanes),
                    inject_->pick(spec::CarryRegisterFile::kBitsPerLane));
      ++counters_.faults_crf_flips;
    }
    if (inject_->fire_hist()) {
      flip_lane = inject_->pick(kWarpSize);
      flip_bit = inject_->pick(spec::CarryRegisterFile::kBitsPerLane);
    }
    if (inject_->fire_detect()) force_lane = inject_->pick(kWarpSize);
    if (inject_->fire_mask()) mask_lane = inject_->pick(kWarpSize);
  }

  const auto row = crf_->read_row(op.pc);
  ++counters_.crf_row_reads;
  const std::uint64_t due = now_ + static_cast<unsigned>(latency + 1);
  bool any_repair = false;
  bool any_genuine_repair = false;
  std::size_t lane_idx = op.payload;
  std::uint64_t slice_computes = 0;
  // Active lanes only, lowest first — identical order to a 32-lane scan.
  std::uint32_t lanes = op.active_mask;
  while (lanes != 0) {
    const int lane = std::countr_zero(lanes);
    lanes &= lanes - 1;
    const spec::LaneRecord& t = ws.adder_lanes[lane_idx++];
    const int num_slices = t.num_slices;

    std::uint8_t hist = row[static_cast<std::size_t>(lane)];
    if (lane == flip_lane) {
      // The corrupted value flows through prediction AND the write-back
      // merge below — the adversarial read-modify-write path.
      hist ^= static_cast<std::uint8_t>(1u << flip_bit);
      ++counters_.faults_hist_flips;
    }

    const spec::SpeculationOutcome out = spec::resolve_prediction(
        spec::compose_prediction(hist, t), t.actual, num_slices);

    ++counters_.adder_thread_ops;
    slice_computes += static_cast<std::uint64_t>(num_slices);

    const bool genuine = out.any_misprediction();
    bool repair = genuine;
    if (lane == mask_lane && genuine) {
      // Forced-hit fault: the detector stays silent on a real mispredict.
      // The one fault class outside ST2's safety envelope — counted so the
      // self-check layer can fail the run (in hardware the result would be
      // corrupt); no repair cycle, no recompute, no retraining write.
      repair = false;
      ++counters_.faults_masked_repairs;
    } else if (lane == force_lane && !genuine) {
      // Forced-mispredict fault: a spurious repair. Harmless by
      // construction — the "repaired" carries equal the predicted ones —
      // but it costs the +1 cycle and a retraining write like any genuine
      // misprediction.
      repair = true;
      ++counters_.faults_forced_mispredicts;
    }

    if (repair) {
      if (genuine) {
        ++counters_.adder_mispredicts;
        counters_.slice_recomputes +=
            static_cast<std::uint64_t>(out.recompute_count());
        any_genuine_repair = true;
      }
      any_repair = true;
      // Repairing threads write the true pattern back, merging the bits
      // they own into the shared 7-bit entry. The write lands at this
      // instruction's write-back stage (issue + latency + recovery cycle),
      // where it arbitrates against whatever else retires that cycle.
      pending_crf_.push_back(
          PendingCrfWrite{due, op.pc, static_cast<std::uint8_t>(lane),
                          spec::merge_history(hist, t)});
      ++counters_.crf_writes;
    }
  }
  counters_.slice_computes += slice_computes;
  if (due < crf_due_min_ && any_repair) crf_due_min_ = due;
  ++counters_.warp_adder_insts;
  if (any_repair) {
    ++counters_.warp_adder_stalls;
    // The +1 cycle exists only because of injected faults when no genuine
    // misprediction repaired this instruction.
    if (!any_genuine_repair) ++counters_.faults_extra_repairs;
    return 1;
  }
  return 0;
}

void SmCore::issue(int sched, int w, const TraceOp& op) {
  const auto ws_idx = static_cast<std::size_t>(w);
  const WarpStream& ws = *slot_stream_[ws_idx];
  const StaticInfo& si = static_[op.pc];

  // Instruction-mix accounting via the interned per-PC counter program —
  // the same deltas count_instruction produces, without re-deriving the
  // opcode/unit breakdown on every issue.
  const auto threads =
      static_cast<std::uint64_t>(std::popcount(op.active_mask));
  const int variant =
      static_cast<int>(((op.flags >> 4) & 1u) + ((op.flags >> 1) & 2u));
  CounterProgram& cp =
      counter_prog_[static_cast<std::size_t>(op.pc) * 4 +
                    static_cast<std::size_t>(variant)];
  if (cp.n < 0) build_counter_program(op.pc, variant, cp);
  for (int i = 0; i < cp.n; ++i) {
    const CounterProgram::Entry& e = cp.entries[static_cast<std::size_t>(i)];
    *counter_slots_[e.idx] += e.per_thread * threads + e.per_warp;
  }

  OpTiming t = si.timing;
  if (op.is_mem()) {
    t.latency = mem_latency(ws, op, si.is_atomic, &t.interval);
  }
  t.latency += si.rf_conflict_extra;
  t.interval += si.rf_conflict_extra;
  int st2_extra = 0;
  if (cfg_.st2_enabled && op.has_adder()) {
    st2_extra = speculate(ws, op, t.latency);
    t.latency += st2_extra;
    t.interval += st2_extra;
  }

  fu(sched, si.fu) = now_ + static_cast<unsigned>(t.interval);
  // The final st2_extra cycles of the busy window (and of the result
  // latency below) exist only because of the repair cycle; the stall
  // attribution charges waits that land in them to ST2 recovery.
  fu_st2_from(sched, si.fu) =
      now_ + static_cast<unsigned>(t.interval - st2_extra);
  const Deps& d = si.deps;
  const std::size_t reg_base =
      ws_idx * static_cast<std::size_t>(kernel_.regs_used);
  if (d.write_reg >= 0) {
    reg_ready_[reg_base + static_cast<std::size_t>(d.write_reg)] =
        now_ + static_cast<unsigned>(t.latency);
    reg_st2_extra_[reg_base + static_cast<std::size_t>(d.write_reg)] =
        static_cast<std::uint8_t>(st2_extra);
  }
  if (d.write_pred >= 0) {
    pred_ready_[ws_idx * static_cast<std::size_t>(isa::kNumPredRegs) +
                static_cast<std::size_t>(d.write_pred)] =
        now_ + static_cast<unsigned>(t.latency);
  }
  if (si.is_bar) {
    set_mask_bit(barrier_bits_, w);
    Resident& rb = resident_[static_cast<std::size_t>(slot_resident_[ws_idx])];
    if (++rb.warps_at_barrier == rb.live_warps) ++barrier_ripe_;
  }
  if (cfg_.timeline_bucket > 0) {
    const std::size_t b = static_cast<std::size_t>(
        now_ / static_cast<unsigned>(cfg_.timeline_bucket));
    if (b >= timeline_.size()) timeline_.resize(b + 1, 0);
    ++timeline_[b];
  }
  ++slot_cursor_[ws_idx];
}

bool SmCore::scan_candidates(int sched, int lo, int hi, int skip,
                             const TraceOp** op) {
  if (lo >= hi) return false;
  const int lo_word = lo >> 6;
  const int hi_word = (hi - 1) >> 6;
  for (int word = lo_word; word <= hi_word; ++word) {
    std::uint64_t m = cand_word(sched, word);
    if (word == lo_word) m &= ~low_mask(lo - (word << 6));
    if (word == hi_word) m &= low_mask(hi - (word << 6));
    while (m != 0) {
      const int w = (word << 6) + std::countr_zero(m);
      if (w != skip) {
        const std::uint64_t gen = topo_gen_;
        if (warp_ready(w, op)) {
          const FuKind k = static_[(*op)->pc].fu;
          if (fu(sched, k) <= now_) {
            issue(sched, w, **op);
            last_issued_[static_cast<std::size_t>(sched)] = w;
            return true;
          }
          note_fu_busy(sched, k);
        } else {
          note_unready(w);
        }
        if (topo_gen_ != gen) {
          // The poll retired a warp and/or admitted fresh blocks. Re-read
          // the candidate mask so slots that became live later in the scan
          // order get polled this cycle — exactly what the original
          // slot-by-slot iteration did (slots before the scan position stay
          // skipped until the next cycle).
          m = cand_word(sched, word);
          if (word == hi_word) m &= low_mask(hi - (word << 6));
        }
      }
      m &= ~low_mask((w - (word << 6)) + 1);  // drop bits at or below w
    }
  }
  return false;
}

bool SmCore::try_issue(int sched) {
  // Arm the scan-side stall notes; they stay exact for attribute_scanned
  // unless a retire/admission changes the slot population mid-scan.
  const std::uint64_t gen0 = topo_gen_;
  scan_best_ = kStallEmpty;
  scan_st2_ = false;
  scan_exact_ = true;
  if (sched >= cfg_.max_warps_per_sm) return false;
  const TraceOp* op = nullptr;
  const int stride = cfg_.schedulers_per_sm;
  const int last = last_issued_[static_cast<std::size_t>(sched)];
  if (cfg_.scheduler == WarpScheduler::kGto) {
    // Greedy-then-oldest: stick with the last warp while it is ready, else
    // fall back to the oldest (lowest slot).
    if (last >= 0 && mask_bit(active_bits_, last) &&
        !mask_bit(barrier_bits_, last)) {
      if (warp_ready(last, &op)) {
        const FuKind k = static_[op->pc].fu;
        if (fu(sched, k) <= now_) {
          issue(sched, last, *op);
          return true;  // last_issued_ already == last
        }
        note_fu_busy(sched, k);
      } else {
        note_unready(last);
      }
    }
    const bool hit = scan_candidates(sched, 0, cfg_.max_warps_per_sm, last,
                                     &op);
    scan_exact_ = topo_gen_ == gen0;
    return hit;
  }
  // Loose round-robin: start from the warp after the last issued one.
  int start = last >= 0 ? last + stride : sched;
  if (start >= cfg_.max_warps_per_sm) start = sched;
  bool hit = scan_candidates(sched, start, cfg_.max_warps_per_sm, -1, &op);
  if (!hit) hit = scan_candidates(sched, sched, start, -1, &op);
  scan_exact_ = topo_gen_ == gen0;
  return hit;
}

void SmCore::release_barriers() {
  if (barrier_ripe_ == 0) return;
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    Resident& rb = resident_[i];
    if (rb.work_idx < 0 || rb.warps_at_barrier < rb.live_warps) continue;
    // Every live warp of the block is parked: clear their barrier bits.
    for (int word = 0; word < mask_words_; ++word) {
      std::uint64_t m = barrier_bits_[static_cast<std::size_t>(word)];
      while (m != 0) {
        const int w = (word << 6) + std::countr_zero(m);
        m &= m - 1;
        if (slot_resident_[static_cast<std::size_t>(w)] ==
            static_cast<int>(i)) {
          clear_mask_bit(barrier_bits_, w);
        }
      }
    }
    rb.warps_at_barrier = 0;
    --barrier_ripe_;
  }
}

void SmCore::commit_crf_writes() {
  // Move the writes whose write-back stage is due into the CRF, then let
  // the CRF arbitrate same-cycle collisions. The due watermark makes the
  // no-op case (nothing in flight or nothing due yet) a single compare;
  // when writes ARE due, the scan and its swap-remove compaction run
  // exactly as before — commit order feeds the arbitration RNG draws, so
  // it must not change.
  if (crf_due_min_ > now_) return;
  std::uint64_t min_left = ~std::uint64_t{0};
  for (std::size_t i = 0; i < pending_crf_.size();) {
    if (pending_crf_[i].due <= now_) {
      crf_->request_write(pending_crf_[i].pc, pending_crf_[i].lane,
                         pending_crf_[i].carries);
      pending_crf_[i] = pending_crf_.back();
      pending_crf_.pop_back();
    } else {
      min_left = std::min(min_left, pending_crf_[i].due);
      ++i;
    }
  }
  crf_due_min_ = min_left;
  crf_->commit_cycle();
}

void SmCore::seal_counters() {
  if (sealed_) return;
  sealed_ = true;
  counters_.cycles = now_;
  counters_.sm_cycles_max = now_;
  counters_.sm_cycles_sum = now_;
  counters_.crf_write_conflicts = crf_->write_conflicts();
  validate_invariants();
}

void SmCore::validate_invariants() const {
  // Always-on consistency invariants, promoted from abort-style asserts to
  // typed errors so a violation fails the run through the taxonomy (distinct
  // exit code, structured stderr) instead of killing the process. Both hold
  // at any cycle boundary, so they are checked on watchdog-aborted partial
  // runs and before every checkpoint snapshot too.
  //
  // (1) Reconciliation: every scheduler-cycle of the run is attributed to
  // exactly one bucket (an issue or one stall cause).
  const std::uint64_t attributed =
      counters_.sched_issue_cycles + counters_.stall_dependency_cycles +
      counters_.stall_structural_cycles + counters_.stall_barrier_cycles +
      counters_.stall_empty_cycles + counters_.stall_st2_recovery_cycles;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(cfg_.schedulers_per_sm) * now_;
  if (attributed != expected) {
    throw SimError(SimErrorKind::kInvariantViolation,
                   "kernel '" + kernel_.name + "'",
                   "scheduler-cycle attribution does not reconcile: " +
                       std::to_string(attributed) + " attributed vs " +
                       std::to_string(expected) + " scheduler-cycles at cycle " +
                       std::to_string(now_));
  }
  // (2) CRF consistency: every requested write is accounted for (committed,
  // dropped in arbitration, or still in flight), and every stored entry is a
  // legal 7-bit pattern — even under injected bit flips.
  const std::uint64_t crf_accounted = crf_->lane_writes() +
                                      crf_->write_conflicts() +
                                      pending_crf_.size() +
                                      crf_->pending_writes();
  if (counters_.crf_writes != crf_accounted) {
    throw SimError(SimErrorKind::kInvariantViolation,
                   "kernel '" + kernel_.name + "'",
                   "CRF write accounting does not reconcile: " +
                       std::to_string(counters_.crf_writes) +
                       " requested vs " + std::to_string(crf_accounted) +
                       " committed+dropped+in-flight");
  }
  if (!crf_->entries_valid()) {
    throw SimError(SimErrorKind::kInvariantViolation,
                   "kernel '" + kernel_.name + "'",
                   "CRF holds an entry wider than 7 bits");
  }
}

bool SmCore::step_cycle() {
  if (finished()) {
    seal_counters();
    return false;
  }
  admitted_midcycle_ = false;
  release_barriers();
  bool issued = false;
  for (int s = 0; s < cfg_.schedulers_per_sm; ++s) {
    if (try_issue(s)) {
      issued = true;
      ++counters_.sched_issue_cycles;
    } else if (scan_exact_) {
      attribute_scanned(s);
    } else {
      attribute_stall(s, now_, now_ + 1);
    }
  }
  commit_crf_writes();
  ++now_;
  if (issued) {
    ++counters_.sm_active_cycles;
  } else {
    ++counters_.sm_idle_cycles;
    if (!finished()) skip_idle_cycles();
  }
  ST2_ASSERT(now_ < (1ULL << 40) && "timing simulation runaway");
  if (finished()) {
    seal_counters();
    return false;
  }
  return true;
}

EventCounters SmCore::run() {
  while (step_cycle()) {
  }
  seal_counters();
  return counters_;
}

void SmCore::save_state(snapshot::Writer& w) const {
  w.u64(now_);
  w.u64(next_block_);
  w.i32(live_blocks_);
  w.u8(admitted_midcycle_ ? 1 : 0);
  for_each_counter(counters_,
                   [&w](const char*, std::uint64_t v) { w.u64(v); });
  l1_.save(w);
  l2_.save(w);
  // Predictor state is policy-shaped: tag it with the canonical policy spec
  // so a snapshot can never be deserialized under a different policy's
  // layout (the file-level config hash pins this too; this guards direct
  // engine-state restores).
  w.str(cfg_.predictor.describe());
  crf_->save(w);
  w.u8(inject_ ? 1 : 0);
  if (inject_) {
    std::uint64_t rng_state[4];
    inject_->get_rng_state(rng_state);
    for (const std::uint64_t word : rng_state) w.u64(word);
  }
  w.u32(static_cast<std::uint32_t>(pending_crf_.size()));
  for (const PendingCrfWrite& p : pending_crf_) {
    w.u64(p.due);
    w.u32(p.pc);
    w.u8(p.lane);
    w.u8(p.carries);
  }
  w.u32(static_cast<std::uint32_t>(resident_.size()));
  for (const Resident& rb : resident_) {
    w.i32(rb.work_idx);
    w.i32(rb.live_warps);
    w.i32(rb.warps_at_barrier);
  }
  w.u32(static_cast<std::uint32_t>(cfg_.max_warps_per_sm));
  const auto regs = static_cast<std::size_t>(kernel_.regs_used);
  for (int slot = 0; slot < cfg_.max_warps_per_sm; ++slot) {
    const auto ws = static_cast<std::size_t>(slot);
    // A retired/never-used slot's fields are dead (admit_blocks rewrites
    // every field on the next admission), so only active slots carry state.
    const bool active = mask_bit(active_bits_, slot);
    w.u8(active ? 1 : 0);
    if (!active) continue;
    w.i32(slot_resident_[ws]);
    const Resident& rb =
        resident_[static_cast<std::size_t>(slot_resident_[ws])];
    const BlockWork& bw = work_.blocks[static_cast<std::size_t>(rb.work_idx)];
    // The stream pointer is serialized as the warp's index within its block
    // so restore can rebuild it against the re-captured workload.
    w.u32(static_cast<std::uint32_t>(slot_stream_[ws] - bw.warps.data()));
    w.u32(slot_cursor_[ws]);
    w.u8(mask_bit(barrier_bits_, slot) ? 1 : 0);
    w.u64(slot_ready_hint_[ws]);
    w.u64(slot_ready_hint_base_[ws]);
    for (std::size_t r = 0; r < regs; ++r) w.u64(reg_ready_[ws * regs + r]);
    for (std::size_t r = 0; r < regs; ++r) w.u8(reg_st2_extra_[ws * regs + r]);
    for (std::size_t p = 0; p < static_cast<std::size_t>(isa::kNumPredRegs);
         ++p) {
      w.u64(pred_ready_[ws * static_cast<std::size_t>(isa::kNumPredRegs) + p]);
    }
  }
  for (const std::uint64_t v : fu_busy_) w.u64(v);
  for (const std::uint64_t v : fu_st2_from_) w.u64(v);
  w.u32(static_cast<std::uint32_t>(timeline_.size()));
  for (const std::uint32_t v : timeline_) w.u32(v);
  for (const int v : last_issued_) w.i32(v);
}

void SmCore::restore_state(snapshot::Reader& r) {
  // Same bound the step loop asserts as "timing simulation runaway": clocks
  // and event times beyond it can only come from snapshot bit rot, and the
  // idle-skip fast-forward would jump a core straight to a corrupted wake
  // time and hard-abort instead of rejecting the file. Every time-like
  // field below goes through this check.
  constexpr std::uint64_t kMaxTime = 1ULL << 40;
  const auto read_time = [&r](const char* what) {
    const std::uint64_t t = r.u64();
    r.require(t < kMaxTime, std::string(what) + " out of range");
    return t;
  };
  now_ = read_time("SM cycle clock");
  next_block_ = r.u64();
  r.require(next_block_ <= work_.blocks.size(),
            "next-block index out of range");
  live_blocks_ = r.i32();
  r.require(live_blocks_ >= 0 && live_blocks_ <= cfg_.max_blocks_per_sm,
            "live-block count out of range");
  admitted_midcycle_ = r.u8() != 0;
  for_each_counter(counters_,
                   [&r](const char*, std::uint64_t& v) { v = r.u64(); });
  l1_.restore(r);
  l2_.restore(r);
  const std::string policy = r.str();
  r.require(policy == cfg_.predictor.describe(),
            "snapshot speculation policy '" + policy +
                "' differs from the current config ('" +
                cfg_.predictor.describe() + "')");
  crf_->restore(r);
  const bool had_inject = r.u8() != 0;
  r.require(had_inject == inject_.has_value(),
            "fault-injection presence differs from the current config");
  if (inject_) {
    std::uint64_t rng_state[4];
    for (std::uint64_t& word : rng_state) word = r.u64();
    inject_->set_rng_state(rng_state);
  }
  const std::uint32_t n_pending = r.u32();
  r.require(n_pending <= (1u << 24), "pending CRF-write count out of range");
  pending_crf_.clear();
  pending_crf_.reserve(n_pending);
  crf_due_min_ = ~std::uint64_t{0};
  for (std::uint32_t i = 0; i < n_pending; ++i) {
    PendingCrfWrite p{};
    p.due = read_time("pending CRF-write due cycle");
    p.pc = r.u32();
    r.require(p.pc < kernel_.code.size(), "pending CRF-write pc out of range");
    p.lane = r.u8();
    r.require(p.lane < kWarpSize, "pending CRF-write lane out of range");
    p.carries = r.u8();
    r.require(p.carries < 0x80, "pending CRF-write carries out of range");
    pending_crf_.push_back(p);
    // The due watermark is derived state: rebuild it, never trust the file.
    crf_due_min_ = std::min(crf_due_min_, p.due);
  }
  // A snapshot may carry writes already handed to the CRF but not yet
  // committed; zero the watermark so the next commit pass flushes them.
  if (crf_->pending_writes() != 0) crf_due_min_ = 0;
  const std::uint32_t n_resident = r.u32();
  r.require(n_resident <= static_cast<std::uint32_t>(cfg_.max_blocks_per_sm),
            "resident-block count out of range");
  resident_.assign(n_resident, Resident{});
  for (Resident& rb : resident_) {
    rb.work_idx = r.i32();
    r.require(rb.work_idx >= -1 &&
                  rb.work_idx < static_cast<int>(work_.blocks.size()),
              "resident work index out of range");
    rb.live_warps = r.i32();
    rb.warps_at_barrier = r.i32();
    r.require(rb.live_warps >= 0 && rb.warps_at_barrier >= 0 &&
                  rb.warps_at_barrier <= rb.live_warps,
              "resident warp accounting out of range");
  }
  // Derived, not serialized: recount which restored blocks are release-ripe.
  barrier_ripe_ = 0;
  for (const Resident& rb : resident_) {
    if (rb.work_idx >= 0 && rb.live_warps > 0 &&
        rb.warps_at_barrier == rb.live_warps) {
      ++barrier_ripe_;
    }
  }
  const std::uint32_t n_warps = r.u32();
  r.require(n_warps == static_cast<std::uint32_t>(cfg_.max_warps_per_sm),
            "warp-slot count differs from the current config");
  std::fill(active_bits_.begin(), active_bits_.end(), 0);
  std::fill(barrier_bits_.begin(), barrier_bits_.end(), 0);
  const auto regs = static_cast<std::size_t>(kernel_.regs_used);
  for (int slot = 0; slot < cfg_.max_warps_per_sm; ++slot) {
    const auto ws = static_cast<std::size_t>(slot);
    // Reset the banks to admission defaults; active slots overwrite below.
    slot_stream_[ws] = nullptr;
    slot_ops_[ws] = nullptr;
    slot_cursor_[ws] = 0;
    slot_len_[ws] = 0;
    slot_resident_[ws] = -1;
    slot_ready_hint_[ws] = 0;
    slot_ready_hint_base_[ws] = 0;
    const bool active = r.u8() != 0;
    if (!active) continue;
    set_mask_bit(active_bits_, slot);
    slot_resident_[ws] = r.i32();
    r.require(slot_resident_[ws] >= 0 &&
                  slot_resident_[ws] < static_cast<int>(resident_.size()),
              "slot resident index out of range");
    const Resident& rb =
        resident_[static_cast<std::size_t>(slot_resident_[ws])];
    r.require(rb.work_idx >= 0, "slot points at a free resident entry");
    const BlockWork& bw = work_.blocks[static_cast<std::size_t>(rb.work_idx)];
    const std::uint32_t warp_in_block = r.u32();
    r.require(warp_in_block < bw.warps.size(),
              "slot warp index out of range for its block");
    const WarpStream& stream =
        bw.warps[static_cast<std::size_t>(warp_in_block)];
    slot_stream_[ws] = &stream;
    slot_ops_[ws] = stream.ops.data();
    slot_len_[ws] = static_cast<std::uint32_t>(stream.ops.size());
    slot_cursor_[ws] = r.u32();
    r.require(slot_cursor_[ws] <= slot_len_[ws],
              "slot cursor past the end of its stream");
    if (r.u8() != 0) set_mask_bit(barrier_bits_, slot);
    slot_ready_hint_[ws] = read_time("slot ready hint");
    slot_ready_hint_base_[ws] = read_time("slot ready-hint base");
    for (std::size_t reg = 0; reg < regs; ++reg) {
      reg_ready_[ws * regs + reg] = read_time("register ready cycle");
    }
    for (std::size_t reg = 0; reg < regs; ++reg) {
      reg_st2_extra_[ws * regs + reg] = r.u8();
    }
    for (std::size_t p = 0; p < static_cast<std::size_t>(isa::kNumPredRegs);
         ++p) {
      pred_ready_[ws * static_cast<std::size_t>(isa::kNumPredRegs) + p] =
          read_time("predicate ready cycle");
    }
  }
  // Cross-field liveness accounting. The step loop trusts these counts to
  // decide progress (a block retires when live_warps hits zero, the SM
  // finishes when live_blocks_ does); a snapshot where they disagree with
  // the actual warp slots would idle-step forever instead of finishing.
  int live_residents = 0;
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    if (resident_[i].work_idx < 0) continue;
    ++live_residents;
    int active = 0;
    int at_barrier = 0;
    for (int slot = 0; slot < cfg_.max_warps_per_sm; ++slot) {
      if (!mask_bit(active_bits_, slot) ||
          slot_resident_[static_cast<std::size_t>(slot)] !=
              static_cast<int>(i)) {
        continue;
      }
      ++active;
      at_barrier += mask_bit(barrier_bits_, slot) ? 1 : 0;
    }
    r.require(active == resident_[i].live_warps &&
                  at_barrier == resident_[i].warps_at_barrier,
              "resident-block warp accounting disagrees with warp slots");
  }
  r.require(live_residents == live_blocks_,
            "live-block count disagrees with resident blocks");
  for (std::uint64_t& v : fu_busy_) v = read_time("FU busy-until cycle");
  for (std::uint64_t& v : fu_st2_from_) {
    v = read_time("FU ST2-tail start cycle");
  }
  const std::uint32_t n_timeline = r.u32();
  r.require(n_timeline <= (1u << 28), "timeline bucket count out of range");
  timeline_.assign(n_timeline, 0);
  for (std::uint32_t& v : timeline_) v = r.u32();
  for (int& v : last_issued_) {
    v = r.i32();
    r.require(v >= -1 && v < cfg_.max_warps_per_sm,
              "last-issued warp index out of range");
  }
  topo_gen_ = 0;  // scan-local generation counter; no scan is in flight
  // Restored cores are live by definition; re-sealing at the end is
  // deterministic and idempotent.
  sealed_ = false;
  // A restored state that fails the self-checks is a *snapshot* problem
  // (bit rot that slipped past the per-field range checks), not a
  // simulator bug — reclassify so the caller rejects the file.
  try {
    validate_invariants();
  } catch (const SimError& e) {
    throw SimError(SimErrorKind::kSnapshotInvalid, "restored SM state",
                   e.what());
  }
}

}  // namespace st2::sim
