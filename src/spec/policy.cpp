#include "src/spec/policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/common/contracts.hpp"
#include "src/common/rng.hpp"
#include "src/spec/crf.hpp"

namespace st2::spec {

namespace {

constexpr int kLanes = 32;
constexpr std::uint8_t kPatternMask = 0x7f;

/// Strict unsigned integer: all digits, no sign, no junk, bounded length.
bool parse_uint(const std::string& s, long long* out) {
  if (s.empty() || s.size() > 9) return false;
  long long v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument(what);
}

}  // namespace

const std::array<const char*, 4>& predictor_names() {
  static const std::array<const char*, 4> kNames = {"crf", "mru", "tage",
                                                    "static"};
  return kNames;
}

PredictorConfig PredictorConfig::parse(const std::string& spec) {
  PredictorConfig cfg;
  std::size_t pos = 0;
  const std::size_t first = spec.find(',');
  const std::string name = spec.substr(0, first);
  if (name == "crf") {
    cfg.kind = PredictorKind::kCrf;
  } else if (name == "mru") {
    cfg.kind = PredictorKind::kMru;
  } else if (name == "tage") {
    cfg.kind = PredictorKind::kTage;
  } else if (name == "static") {
    cfg.kind = PredictorKind::kStatic;
  } else {
    bad("unknown --spec-policy '" + name +
        "': expected crf, mru, tage or static");
  }
  pos = first == std::string::npos ? spec.size() + 1 : first + 1;

  bool seen_pattern = false, seen_tables = false, seen_entries = false,
       seen_minhist = false;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;

    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      bad("bad --spec-policy token '" + tok + "': expected key=value");
    }
    const std::string key = tok.substr(0, eq);
    long long value = 0;
    if (!parse_uint(tok.substr(eq + 1), &value)) {
      bad("bad --spec-policy value in '" + tok +
          "': expected an unsigned integer");
    }

    if (key == "pattern" && cfg.kind == PredictorKind::kStatic) {
      if (seen_pattern) bad("duplicate --spec-policy key 'pattern'");
      seen_pattern = true;
      if (value > kPatternMask) {
        bad("bad --spec-policy token '" + tok +
            "': pattern must be a 7-bit value in [0, 127]");
      }
      cfg.static_pattern = static_cast<int>(value);
    } else if (key == "tables" && cfg.kind == PredictorKind::kTage) {
      if (seen_tables) bad("duplicate --spec-policy key 'tables'");
      seen_tables = true;
      if (value < 1 || value > 6) {
        bad("bad --spec-policy token '" + tok +
            "': tables must be in [1, 6]");
      }
      cfg.tage_tables = static_cast<int>(value);
    } else if (key == "entries" && cfg.kind == PredictorKind::kTage) {
      if (seen_entries) bad("duplicate --spec-policy key 'entries'");
      seen_entries = true;
      if (value < 16 || value > 1024 || (value & (value - 1)) != 0) {
        bad("bad --spec-policy token '" + tok +
            "': entries must be a power of two in [16, 1024]");
      }
      cfg.tage_entries = static_cast<int>(value);
    } else if (key == "minhist" && cfg.kind == PredictorKind::kTage) {
      if (seen_minhist) bad("duplicate --spec-policy key 'minhist'");
      seen_minhist = true;
      if (value < 1 || value > 32) {
        bad("bad --spec-policy token '" + tok +
            "': minhist must be in [1, 32]");
      }
      cfg.tage_min_hist = static_cast<int>(value);
    } else {
      bad("unknown --spec-policy key '" + key + "' for policy '" +
          std::string(cfg.policy_name()) + "'");
    }
  }
  if (cfg.kind == PredictorKind::kTage &&
      (static_cast<long long>(cfg.tage_min_hist) << (cfg.tage_tables - 1)) >
          64) {
    bad("bad --spec-policy: the longest tage history (minhist << (tables-1))"
        " exceeds the 64-entry path ring");
  }
  return cfg;
}

const char* PredictorConfig::policy_name() const {
  return predictor_names()[static_cast<std::size_t>(kind)];
}

std::string PredictorConfig::describe() const {
  switch (kind) {
    case PredictorKind::kCrf:
      return "crf";
    case PredictorKind::kMru:
      return "mru";
    case PredictorKind::kTage:
      return "tage,tables=" + std::to_string(tage_tables) +
             ",entries=" + std::to_string(tage_entries) +
             ",minhist=" + std::to_string(tage_min_hist);
    case PredictorKind::kStatic:
      return "static,pattern=" + std::to_string(static_pattern);
  }
  ST2_ASSERT(false);
  return "crf";
}

long long PredictorConfig::table_bytes_per_sm() const {
  switch (kind) {
    case PredictorKind::kCrf:
      return CarryRegisterFile::kTotalBytes;  // the paper's 448 B
    case PredictorKind::kMru:
      return kLanes * 7 / 8;  // one 224-bit row
    case PredictorKind::kTage: {
      // Per tagged entry: a 224-bit row + 11-bit tag + 2-bit useful +
      // valid bit; plus the 224-bit base row.
      const long long bits =
          static_cast<long long>(tage_tables) * tage_entries * (224 + 14) +
          224;
      return (bits + 7) / 8;
    }
    case PredictorKind::kStatic:
      return 1;  // the 7-bit profile register
  }
  ST2_ASSERT(false);
  return 0;
}

void CarryPredictor::commit(std::span<const CarryWrite> writes) {
  if (writes.empty()) return;
  resolved_.clear();
  for (const CarryWrite& w : writes) {
    ST2_EXPECTS(w.lane >= 0 && w.lane < kLanes);
    ST2_EXPECTS(w.carries < 0x80);
    resolved_.push_back(Resolved{cell(w.pc, w.lane), w.pc, w.carries});
  }
  // Group writers per cell; a random one wins, the rest are dropped.
  std::sort(resolved_.begin(), resolved_.end(),
            [](const Resolved& x, const Resolved& y) {
              return x.cell < y.cell;
            });
  std::size_t i = 0;
  while (i < resolved_.size()) {
    std::size_t j = i + 1;
    while (j < resolved_.size() && resolved_[j].cell == resolved_[i].cell) {
      ++j;
    }
    const Resolved& w = resolved_[i + rng_.next_below(j - i)];
    write(w.cell, w.pc, w.carries);
    ++lane_writes_;
    write_conflicts_ += (j - i) - 1;
    i = j;
  }
  resolved_.clear();
}

namespace {

// ---------------------------------------------------------------------------
// mru: per-lane most-recent value, no PC indexing. The cheapest trainable
// policy (one 224-bit row): a lane predicts whatever carry pattern it last
// mispredicted with, regardless of which instruction produced it.
class MruPredictor final : public CarryPredictor {
 public:
  explicit MruPredictor(std::uint64_t seed) : CarryPredictor(seed) {}

  std::array<std::uint8_t, 32> read_row(std::uint64_t) override {
    return table_;
  }

  void flip_bit(std::uint64_t, int lane, int bit) override {
    ST2_EXPECTS(lane >= 0 && lane < kLanes);
    ST2_EXPECTS(bit >= 0 && bit < 7);
    table_[static_cast<std::size_t>(lane)] ^=
        static_cast<std::uint8_t>(1u << bit);
  }

  bool entries_valid() const override {
    for (const std::uint8_t e : table_) {
      if (e >= 0x80) return false;
    }
    return true;
  }

  PredictorKind kind() const override { return PredictorKind::kMru; }

 private:
  std::uint64_t cell(std::uint64_t, int lane) const override {
    return static_cast<std::uint64_t>(lane);
  }
  void write(std::uint64_t cell, std::uint64_t, std::uint8_t carries) override {
    table_[cell] = carries;
  }


  std::array<std::uint8_t, 32> table_{};
};

// ---------------------------------------------------------------------------
// static: a hard-wired profile pattern. Never trains — write-backs still
// arbitrate (so the SM core's write accounting is identical), but the
// winning value is dropped. flip_bit models an SEU in the profile register
// itself: the flip persists until the next flip.
class StaticPredictor final : public CarryPredictor {
 public:
  StaticPredictor(std::uint8_t pattern, std::uint64_t seed)
      : CarryPredictor(seed), pattern_(pattern) {
    ST2_EXPECTS(pattern < 0x80);
  }

  std::array<std::uint8_t, 32> read_row(std::uint64_t) override {
    std::array<std::uint8_t, 32> row;
    row.fill(pattern_);
    return row;
  }

  void flip_bit(std::uint64_t, int, int bit) override {
    ST2_EXPECTS(bit >= 0 && bit < 7);
    pattern_ ^= static_cast<std::uint8_t>(1u << bit);
  }

  bool entries_valid() const override { return pattern_ < 0x80; }

  PredictorKind kind() const override { return PredictorKind::kStatic; }

 private:
  std::uint64_t cell(std::uint64_t, int lane) const override {
    return static_cast<std::uint64_t>(lane);
  }
  void write(std::uint64_t, std::uint64_t, std::uint8_t) override {}


  std::uint8_t pattern_;
};

// ---------------------------------------------------------------------------
// tage: TAGE-style tagged geometric-history tables over whole warp rows.
// Tagged table i is indexed by a hash of the PC and the last
// minhist << i PCs from a 64-entry path-history ring; an entry holds an
// 11-bit tag, a 2-bit usefulness counter and a full 224-bit row. Prediction
// probes longest history first and falls back to a per-lane base row (an
// MRU table). Training re-probes with the update-time history — the probe
// can land elsewhere than the one that predicted, which only costs
// accuracy, never correctness. On a mispredict the provider's usefulness
// decays and a longer-history entry with useful == 0 is allocated; when
// none is free the candidates age instead (classic TAGE replacement).
class TagePredictor final : public CarryPredictor {
 public:
  static constexpr int kRing = 64;

  TagePredictor(const PredictorConfig& cfg, std::uint64_t seed)
      : CarryPredictor(seed), cfg_(cfg) {
    tables_.assign(
        static_cast<std::size_t>(cfg_.tage_tables) *
            static_cast<std::size_t>(cfg_.tage_entries),
        Entry{});
  }

  std::array<std::uint8_t, 32> read_row(std::uint64_t pc) override {
    std::array<std::uint8_t, 32> out = base_;
    for (int t = cfg_.tage_tables - 1; t >= 0; --t) {
      const std::uint64_t h = folded(pc, hist_len(t));
      const Entry& e = entry(t, index_of(h));
      if (e.valid && e.tag == tag_of(h)) {
        out = e.row;
        break;
      }
    }
    // Path history advances after the probe: the prediction for this PC
    // cannot depend on its own occurrence.
    ring_[ring_pos_] = static_cast<std::uint32_t>(pc);
    ring_pos_ = (ring_pos_ + 1) % kRing;
    return out;
  }

  void flip_bit(std::uint64_t, int lane, int bit) override {
    ST2_EXPECTS(lane >= 0 && lane < kLanes);
    ST2_EXPECTS(bit >= 0 && bit < 7);
    base_[static_cast<std::size_t>(lane)] ^=
        static_cast<std::uint8_t>(1u << bit);
  }

  bool entries_valid() const override {
    for (const std::uint8_t e : base_) {
      if (e >= 0x80) return false;
    }
    for (const Entry& e : tables_) {
      for (const std::uint8_t v : e.row) {
        if (v >= 0x80) return false;
      }
    }
    return true;
  }

  PredictorKind kind() const override { return PredictorKind::kTage; }

 private:
  struct Entry {
    std::array<std::uint8_t, 32> row{};
    std::uint16_t tag = 0;
    std::uint8_t valid = 0;
    std::uint8_t useful = 0;
  };

  /// Resolves the write with the update-time history. A cell is
  /// `row * kLanes + lane`, where row 0 is the base row and row
  /// `1 + provider * entries + index` is a tagged entry.
  std::uint64_t cell(std::uint64_t pc, int lane) const override {
    std::uint64_t row = 0;
    for (int t = cfg_.tage_tables - 1; t >= 0; --t) {
      const std::uint64_t h = folded(pc, hist_len(t));
      const std::uint32_t idx = index_of(h);
      const Entry& e = entry(t, idx);
      if (e.valid && e.tag == tag_of(h)) {
        row = 1 +
              static_cast<std::uint64_t>(t) *
                  static_cast<std::uint64_t>(cfg_.tage_entries) +
              idx;
        break;
      }
    }
    return row * kLanes + static_cast<std::uint64_t>(lane);
  }

  void write(std::uint64_t cell, std::uint64_t pc,
             std::uint8_t carries) override {
    const std::uint64_t row = cell / kLanes;
    const int lane = static_cast<int>(cell % kLanes);
    if (row == 0) {
      apply(pc, -1, 0, lane, carries);
      return;
    }
    const auto entries = static_cast<std::uint64_t>(cfg_.tage_entries);
    apply(pc, static_cast<int>((row - 1) / entries),
          static_cast<std::uint32_t>((row - 1) % entries), lane, carries);
  }

  int hist_len(int table) const { return cfg_.tage_min_hist << table; }

  Entry& entry(int table, std::uint32_t index) {
    return tables_[static_cast<std::size_t>(table) *
                       static_cast<std::size_t>(cfg_.tage_entries) +
                   index];
  }
  const Entry& entry(int table, std::uint32_t index) const {
    return tables_[static_cast<std::size_t>(table) *
                       static_cast<std::size_t>(cfg_.tage_entries) +
                   index];
  }

  std::uint32_t index_of(std::uint64_t h) const {
    return static_cast<std::uint32_t>(
        h % static_cast<std::uint64_t>(cfg_.tage_entries));
  }
  static std::uint16_t tag_of(std::uint64_t h) {
    return static_cast<std::uint16_t>((h >> 20) & 0x7ff);
  }

  /// FNV-style fold of the PC with the last `len` path-history PCs.
  std::uint64_t folded(std::uint64_t pc, int len) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = (h ^ pc) * 0x100000001b3ULL;
    for (int k = 0; k < len; ++k) {
      const std::uint32_t p =
          ring_[(ring_pos_ + kRing - 1 - static_cast<std::uint32_t>(k)) %
                kRing];
      h = (h ^ p) * 0x100000001b3ULL;
    }
    return h ^ (h >> 29);
  }

  void apply(std::uint64_t pc, int provider, std::uint32_t index, int lane,
             std::uint8_t carries) {
    if (provider >= 0) {
      Entry& e = entry(provider, index);
      e.row[static_cast<std::size_t>(lane)] = carries;
      if (e.useful > 0) --e.useful;
    } else {
      base_[static_cast<std::size_t>(lane)] = carries;
    }
    // Escalate the mispredicted row to a longer history.
    for (int t = provider + 1; t < cfg_.tage_tables; ++t) {
      const std::uint64_t h = folded(pc, hist_len(t));
      Entry& e = entry(t, index_of(h));
      if (!e.valid || e.useful == 0) {
        e.valid = 1;
        e.tag = tag_of(h);
        e.useful = 1;
        e.row = base_;
        e.row[static_cast<std::size_t>(lane)] = carries;
        return;
      }
    }
    for (int t = provider + 1; t < cfg_.tage_tables; ++t) {
      const std::uint64_t h = folded(pc, hist_len(t));
      Entry& e = entry(t, index_of(h));
      if (e.useful > 0) --e.useful;
    }
  }

  PredictorConfig cfg_;
  std::array<std::uint8_t, 32> base_{};
  std::array<std::uint32_t, kRing> ring_{};
  std::uint32_t ring_pos_ = 0;
  std::vector<Entry> tables_;
};

}  // namespace

std::unique_ptr<CarryPredictor> make_predictor(const PredictorConfig& cfg,
                                               std::uint64_t seed) {
  switch (cfg.kind) {
    case PredictorKind::kCrf:
      return std::make_unique<CarryRegisterFile>(seed);
    case PredictorKind::kMru:
      return std::make_unique<MruPredictor>(seed);
    case PredictorKind::kTage:
      return std::make_unique<TagePredictor>(cfg, seed);
    case PredictorKind::kStatic:
      return std::make_unique<StaticPredictor>(
          static_cast<std::uint8_t>(cfg.static_pattern), seed);
  }
  ST2_ASSERT(false);
  return nullptr;
}

}  // namespace st2::spec
