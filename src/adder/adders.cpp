#include "src/adder/adders.hpp"

#include <bit>

#include "src/circuit/characterize.hpp"
#include "src/common/contracts.hpp"

namespace st2::adder {

namespace {

/// Computes the sliced sum using a given carry-in per slice (bit s-1 of
/// `carries` = carry-in of slice s). This is exactly what the parallel slices
/// produce in the first execution cycle.
std::uint64_t sliced_sum(std::uint64_t a, std::uint64_t b, bool cin,
                         std::uint8_t carries, int num_slices, bool* cout) {
  std::uint64_t sum = 0;
  bool carry_out_of_last = false;
  for (int s = 0; s < num_slices; ++s) {
    const std::uint64_t as = bits(a, s * kSliceBits, kSliceBits);
    const std::uint64_t bs = bits(b, s * kSliceBits, kSliceBits);
    const bool ci = (s == 0) ? cin : ((carries >> (s - 1)) & 1u) != 0;
    const std::uint64_t local = as + bs + (ci ? 1 : 0);
    sum |= (local & low_mask(kSliceBits)) << (s * kSliceBits);
    carry_out_of_last = bit(local, kSliceBits);
  }
  if (cout != nullptr) *cout = carry_out_of_last;
  return sum;
}

std::uint64_t width_mask(int num_slices) {
  return low_mask(num_slices * kSliceBits);
}

std::uint64_t exact_sum(std::uint64_t a, std::uint64_t b, bool cin,
                        int num_slices, bool* cout) {
  const std::uint64_t m = width_mask(num_slices);
  const std::uint64_t am = a & m;
  const std::uint64_t bm = b & m;
  if (num_slices == kNumSlices) {
    if (cout != nullptr) *cout = carry_out(am, bm, cin);
    return am + bm + (cin ? 1 : 0);
  }
  const std::uint64_t s = am + bm + (cin ? 1 : 0);
  if (cout != nullptr) *cout = bit(s, num_slices * kSliceBits);
  return s & m;
}

}  // namespace

EnergyParams EnergyParams::from_circuit(int vectors) {
  const auto ref = circuit::characterize_reference(vectors, /*seed=*/7);
  const auto sc = circuit::characterize_slice_width(kSliceBits, ref, vectors,
                                                    /*seed=*/7);
  EnergyParams ep{};
  ep.e_slice_nominal = sc.energy_nom / (sc.num_slices * ref.energy_per_op);
  ep.e_slice_scaled = sc.energy_scaled / (sc.num_slices * ref.energy_per_op);
  ep.v_scaled = sc.v_scaled;
  return ep;
}

AddOutcome ReferenceAdder::add(std::uint64_t a, std::uint64_t b, bool cin,
                               int num_slices) const {
  AddOutcome out{};
  out.sum = exact_sum(a, b, cin, num_slices, &out.cout);
  out.cycles = 1;
  // Narrow adders (FP32 mantissa) burn proportionally less.
  out.energy = ep_.e_reference_add * num_slices / double{kNumSlices};
  return out;
}

AddOutcome CslaAdder::add(std::uint64_t a, std::uint64_t b, bool cin,
                          int num_slices) const {
  AddOutcome out{};
  out.sum = exact_sum(a, b, cin, num_slices, &out.cout);
  out.cycles = 1;
  // First slice computes once; every other slice computes both hypotheses
  // and pays an output mux. Level shifters bracket the scaled domain.
  const double computations = 1.0 + 2.0 * (num_slices - 1);
  out.energy = computations * ep_.e_slice_scaled +
               (num_slices - 1) * ep_.e_mux_select + ep_.e_level_shift;
  return out;
}

AddOutcome ApproximateAdder::add(std::uint64_t a, std::uint64_t b, bool cin,
                                 int num_slices) const {
  AddOutcome out{};
  // Static-zero carry speculation, no recovery.
  out.sum = sliced_sum(a, b, cin, /*carries=*/0, num_slices, &out.cout);
  bool exact_cout = false;
  const std::uint64_t exact = exact_sum(a, b, cin, num_slices, &exact_cout);
  out.correct = (out.sum & width_mask(num_slices)) == exact &&
                out.cout == exact_cout;
  out.mispredicted = !out.correct;
  out.cycles = 1;
  out.energy = num_slices * ep_.e_slice_scaled + ep_.e_level_shift;
  out.sum &= width_mask(num_slices);
  return out;
}

namespace {

/// Window-lookahead carry prediction shared by CASA and VLSA: the carry-in
/// of slice s is the carry the `window` bits below the boundary generate on
/// their own.
std::uint8_t window_predict(std::uint64_t a, std::uint64_t b, int window,
                            int num_slices) {
  std::uint8_t pred = 0;
  for (int s = 1; s < num_slices; ++s) {
    const int lo = s * kSliceBits - window;
    const std::uint64_t aw = bits(a, lo, window);
    const std::uint64_t bw = bits(b, lo, window);
    if (bit(aw + bw, window)) pred |= std::uint8_t(1u << (s - 1));
  }
  return pred;
}

}  // namespace

CasaAdder::CasaAdder(int window_bits, const EnergyParams& ep)
    : window_bits_(window_bits), ep_(ep) {
  ST2_EXPECTS(window_bits >= 1 && window_bits <= kSliceBits);
}

AddOutcome CasaAdder::add(std::uint64_t a, std::uint64_t b, bool cin,
                          int num_slices) const {
  AddOutcome out{};
  const std::uint8_t pred = window_predict(a, b, window_bits_, num_slices);
  bool pred_cout = false;
  out.sum = sliced_sum(a, b, cin, pred, num_slices, &pred_cout) &
            width_mask(num_slices);
  bool exact_cout = false;
  const std::uint64_t exact = exact_sum(a, b, cin, num_slices, &exact_cout);
  out.cout = pred_cout;
  out.correct = out.sum == exact && pred_cout == exact_cout;
  out.mispredicted = !out.correct;
  out.cycles = 1;  // no correction: wrong results ship
  out.energy = num_slices * ep_.e_slice_scaled + ep_.e_level_shift;
  return out;
}

VlsaAdder::VlsaAdder(int window_bits, const EnergyParams& ep)
    : window_bits_(window_bits), ep_(ep) {
  ST2_EXPECTS(window_bits >= 1 && window_bits <= 16);
}

AddOutcome VlsaAdder::add(std::uint64_t a, std::uint64_t b, bool cin,
                          int num_slices) const {
  AddOutcome out{};
  // Predict each slice's carry-in from a short ripple window below the
  // boundary, assuming no carry enters the window.
  std::uint8_t pred = 0;
  for (int s = 1; s < num_slices; ++s) {
    const int boundary = s * kSliceBits;
    const int lo = boundary - window_bits_;
    const std::uint64_t aw = bits(a, lo, window_bits_);
    const std::uint64_t bw = bits(b, lo, window_bits_);
    const bool c = bit(aw + bw, window_bits_);
    if (c) pred |= std::uint8_t(1u << (s - 1));
  }
  const std::uint8_t actual = spec::lane_record(a, b, cin, num_slices).actual;
  const std::uint8_t wrong = pred ^ actual;

  out.sum = exact_sum(a, b, cin, num_slices, &out.cout);
  out.mispredicted = wrong != 0;
  int recompute = 0;
  if (wrong != 0) {
    const int lowest = std::countr_zero(static_cast<unsigned>(wrong));
    recompute = (num_slices - 1) - lowest;  // slices lowest+1 .. n-1
    out.cycles = 2;
  }
  out.slices_recomputed = recompute;
  out.energy = (num_slices + recompute) * ep_.e_slice_scaled +
               ep_.e_level_shift;
  return out;
}

AddOutcome St2Adder::add(std::uint64_t a, std::uint64_t b, bool cin,
                         int num_slices, const spec::Prediction& pred,
                         const spec::SpeculationOutcome& outcome) const {
  AddOutcome out{};
  // First cycle: all slices execute with predicted carries.
  bool c1_cout = false;
  const std::uint64_t first = sliced_sum(a, b, cin, pred.carries, num_slices,
                                         &c1_cout);
  out.mispredicted = outcome.any_misprediction();
  out.slices_recomputed = outcome.recompute_count();
  if (!out.mispredicted) {
    out.sum = first & width_mask(num_slices);
    out.cout = c1_cout;
    out.cycles = 1;
  } else {
    // Second cycle: affected slices recompute with the inverse carry; the
    // CSLA-style select then yields the exact result. We assert the invariant
    // the hardware guarantees: the selected output equals the exact sum.
    out.sum = exact_sum(a, b, cin, num_slices, &out.cout);
    const std::uint64_t check =
        sliced_sum(a, b, cin, outcome.actual, num_slices, nullptr) &
        width_mask(num_slices);
    ST2_ASSERT(check == out.sum);
    out.cycles = 2;
  }
  out.correct = true;
  out.energy = num_slices * ep_.e_slice_scaled +
               out.slices_recomputed * (ep_.e_slice_scaled + ep_.e_mux_select) +
               ep_.e_crf_access + ep_.e_level_shift +
               (out.mispredicted ? ep_.e_crf_write : 0.0);
  return out;
}

AddOutcome St2Adder::add(const spec::AddOp& op,
                         spec::CarrySpeculator& speculator) const {
  const spec::Prediction pred = speculator.predict(op);
  const spec::SpeculationOutcome outcome = speculator.resolve(op, pred);
  return add(op.a, op.b, op.cin, op.num_slices, pred, outcome);
}

}  // namespace st2::adder
