// Crash-consistent walker checkpoint/restore (ROADMAP item-1 prerequisite).
//
// A checkpoint serializes the FULL resumable run state of a miniQMC sweep —
// every walker's positions, rng stream (including the cached Box–Muller
// deviate), move counters, and determinant state (the Sherman–Morrison
// inverse verbatim: a rebuild from the orbital matrix would not give its
// bits) — so that a run killed at step k and resumed produces
// the bit-for-bit identical `walker_accepts`/`walker_log_det` fingerprints
// as an uninterrupted run (tests/test_checkpoint.cpp, tools/fault_harness.py).
// The distance tables are not stored: each is a function of the positions
// (distance/distance_table.h), and the restore rebuilds them with evaluate().
//
// On-disk format (version 2, little-endian, parseable from Python):
//
//   header   8s  magic "MQCCKPT1"
//            u32 format version (kFormatVersion)
//            u64 config trajectory hash (miniqmc_config_hash)
//            u32 section count
//            u32 CRC32 of the 24 header bytes above
//   section  u32 section id (SectionId)        -- repeated section-count times
//            u32 section index (walker id; 0 for Meta)
//            u64 payload length
//            u32 CRC32 of the payload
//            [length] payload bytes
//
// Walker section payload (version 2):
//
//   u32 walker id;  4 x u64 rng state, u8 have_gauss, f64 cached gaussian;
//   3 x u64 counters (accepted, attempted, orbital evaluations);
//   u32 nel, then nel x 3 f32 positions;
//   u8  distance-table layout tag (1 = SoA, 0 = AoS; no table bytes follow);
//   per spin (up, then down): u32 norb, u8 engine kind (0 = Sherman–Morrison,
//     the only kind; the removed delayed engine's 1 is rejected), the
//     norb x norb f64 inverse, f64 log det, f64 sign —
//     116 + 12 nel + 16 norb^2 bytes in all.
//
// Version 1 also stored every distance-table array after the layout tag; a
// version-1 file is refused on its version field.
//
// Crash consistency: write_snapshot serializes to memory, writes
// `path + ".tmp"`, flushes, then rotates `path` -> `path + ".prev"` and
// `tmp` -> `path`.  A crash at any point leaves either the old snapshot at
// `path`, or the old one at `.prev` with a complete new one at `path` — a
// torn write can only ever affect `.tmp`.  Loaders validate magic, version,
// config hash, and every per-section CRC; read_snapshot_with_fallback falls
// back to `.prev` when `path` is missing or damaged, so a corrupted latest
// snapshot degrades to the last good one instead of a crash or a silent
// wrong-state resume.
//
// ALL checkpoint file I/O lives in checkpoint.cpp (machine-enforced by the
// `checkpoint-io` lint rule, tools/lint_invariants.py).
#ifndef MQC_QMC_CHECKPOINT_H
#define MQC_QMC_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace mqc::ckpt {

inline constexpr char kMagic[8] = {'M', 'Q', 'C', 'C', 'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kFormatVersion = 2;
/// Process exit code of an injected `abort@N` fault (distinguishes the
/// deliberate kill from a genuine crash in the harness).
inline constexpr int kFaultExitCode = 42;

enum class SectionId : std::uint32_t
{
  Meta = 1,  ///< run cursor + shape (one per snapshot, index 0)
  Walker = 2 ///< one per walker, index = walker id
};

struct Section
{
  SectionId id = SectionId::Meta;
  std::uint32_t index = 0;
  std::vector<std::uint8_t> payload;
};

struct Snapshot
{
  std::uint64_t config_hash = 0;
  std::vector<Section> sections;

  [[nodiscard]] const Section* find(SectionId id, std::uint32_t index = 0) const noexcept
  {
    for (const auto& s : sections)
      if (s.id == id && s.index == index)
        return &s;
    return nullptr;
  }
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

// --------------------------------------------------------------------------
// Payload (de)serialization: little-endian append/consume over a byte buffer.
// The reader is bounds-checked and latches failure — callers stream reads
// and test ok() once at the end, so a truncated payload can never read past
// the buffer or be half-applied silently.
// --------------------------------------------------------------------------

class BlobWriter
{
public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void raw(const void* p, std::size_t n)
  {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(out_); }

private:
  std::vector<std::uint8_t> out_;
};

class BlobReader
{
public:
  BlobReader(const std::uint8_t* data, std::size_t size) noexcept : p_(data), left_(size) {}
  explicit BlobReader(const std::vector<std::uint8_t>& v) noexcept : BlobReader(v.data(), v.size())
  {
  }

  [[nodiscard]] std::uint8_t u8() noexcept { return scalar<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() noexcept { return scalar<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() noexcept { return scalar<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() noexcept { return scalar<std::int32_t>(); }
  [[nodiscard]] float f32() noexcept { return scalar<float>(); }
  [[nodiscard]] double f64() noexcept { return scalar<double>(); }

  /// Copy @p n raw bytes out; zero-fills (and latches failure) on underrun.
  void raw(void* dst, std::size_t n) noexcept
  {
    if (n > left_) {
      std::memset(dst, 0, n);
      fail();
      return;
    }
    std::memcpy(dst, p_, n);
    p_ += n;
    left_ -= n;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool exhausted() const noexcept { return left_ == 0; }
  /// Bytes not yet consumed (0 after a latched failure).
  [[nodiscard]] std::size_t remaining() const noexcept { return left_; }

private:
  template <typename T>
  [[nodiscard]] T scalar() noexcept
  {
    T v{};
    raw(&v, sizeof v);
    return v;
  }
  void fail() noexcept
  {
    ok_ = false;
    left_ = 0;
  }

  const std::uint8_t* p_;
  std::size_t left_;
  bool ok_ = true;
};

// --------------------------------------------------------------------------
// File I/O
// --------------------------------------------------------------------------

enum class LoadError
{
  None,       ///< snapshot loaded and validated
  Open,       ///< file missing / unreadable
  Magic,      ///< not a checkpoint file
  Version,    ///< format version newer/older than this build understands
  Header,     ///< header CRC mismatch
  ConfigHash, ///< snapshot belongs to a different run configuration
  Truncated,  ///< file ends mid-section
  SectionCrc, ///< a section's payload failed its CRC
  Layout      ///< payload shape disagrees with the live run (restore-time)
};

[[nodiscard]] const char* load_error_name(LoadError e) noexcept;

struct LoadResult
{
  LoadError error = LoadError::None;
  std::string detail;        ///< one-line human-readable diagnosis
  std::string path_used;     ///< file actually loaded (primary or `.prev`)
  bool fallback_used = false; ///< true when `.prev` served the snapshot

  [[nodiscard]] bool loaded() const noexcept { return error == LoadError::None; }
};

/// Atomically persist @p snap at @p path (tmp + rename; previous snapshot
/// rotated to `path + ".prev"`).  Returns false with @p error set on I/O
/// failure — the previous snapshot is left untouched in that case.
bool write_snapshot(const std::string& path, const Snapshot& snap, std::string* error);

/// Load and fully validate one snapshot file.  @p expected_config_hash
/// guards against resuming state from a different configuration.
[[nodiscard]] LoadResult read_snapshot(const std::string& path,
                                       std::uint64_t expected_config_hash, Snapshot& out);

/// read_snapshot, falling back to `path + ".prev"` when the primary is
/// missing or damaged.  The returned LoadResult describes the file that
/// actually served (fallback_used) or, when both fail, the primary's error
/// with the fallback's appended to detail.
[[nodiscard]] LoadResult read_snapshot_with_fallback(const std::string& path,
                                                     std::uint64_t expected_config_hash,
                                                     Snapshot& out);

// --------------------------------------------------------------------------
// Fault injection (MQC_FAULT_INJECT / MiniQMCConfig::fault_inject)
// --------------------------------------------------------------------------
//
// Spec: comma-separated tokens, applied at the step boundary named by
// `abort@N` (after any interval-aligned checkpoint write at that boundary):
//
//   abort@N            std::_Exit(kFaultExitCode) at step boundary N
//   corrupt@header     flip a byte inside the file header
//   corrupt@meta       flip a byte inside the Meta section payload
//   corrupt@walker<i>  flip a byte inside walker i's section payload
//   truncate@K         drop the last K bytes of the file
//
// corrupt/truncate tokens damage the checkpoint file at `path` right before
// the abort — they require an `abort@N` companion to fire.  A malformed
// token produces a one-line stderr warning and is ignored (never UB, never
// a partial plan); numeric arguments are digits-only, so signed forms like
// `abort@+3` are rejected rather than silently parsed.  Every damage token
// that fires prints a `fault-injected:` confirmation, and one that finds
// nothing to damage (e.g. `corrupt@walker9` in a 4-walker snapshot) prints
// a `fault-injection NO-OP:` warning — tools/fault_harness.py fails a
// scenario whose injection was a no-op.

struct FaultPlan
{
  int abort_at_step = -1;    ///< -1 = no abort fault armed
  bool corrupt_header = false;
  bool corrupt_meta = false;
  int corrupt_walker = -1;   ///< walker id whose section gets a flipped byte
  int truncate_tail = 0;     ///< bytes to chop off the end of the file

  [[nodiscard]] bool armed() const noexcept { return abort_at_step >= 0; }
};

/// Parse a fault spec (see above).  Empty/whitespace spec => inert plan.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Damage the snapshot file at @p path per the plan's corrupt/truncate
/// tokens (no-op for a plan without them).  Each token is confirmed
/// (`fault-injected:`) or reported (`fault-injection NO-OP:`) on stderr;
/// returns false on I/O failure or when any requested damage found nothing
/// to hit, so a caller can tell an armed-but-inert plan from a real one.
bool apply_file_faults(const std::string& path, const FaultPlan& plan);

} // namespace mqc::ckpt

#endif // MQC_QMC_CHECKPOINT_H
