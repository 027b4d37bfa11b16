#pragma once
// The DIGGSNAP container format, shared by every binary artifact the repo
// persists: corpus snapshots (snapshot.h) and stream-engine checkpoints
// (src/stream/checkpoint.h). One container discipline — magic, version,
// section table, FNV-1a checksums — means every new artifact gets
// versioning, truncation detection, and integrity checking for free, and
// the malformed-file error taxonomy stays identical across artifact kinds.
//
// Layout, version 2 (all integers little-endian; written on little-endian
// hosts). The table sits at the end of the file so sections can be
// streamed to disk as they are produced, every section body starts on an
// 8-byte boundary so memory-mapped readers can bind typed column spans
// directly into the file, and each section carries its own checksum so a
// mapped reader can verify sections lazily on first open:
//   header   24 bytes  "DIGGSNAP" + u32 version + u32 count
//                      + u64 table_offset
//   payload  section bodies, each padded to an 8-byte-aligned offset
//   table    count * {u32 type, u32 flags, u64 offset, u64 size,
//                     u64 checksum}   at table_offset (8-byte aligned)
//   checksum u64       FNV-1a over header bytes then table bytes
//                      (section bodies are covered per-entry)
// Any other version (including the retired version 1) is refused with
// "unsupported version N".
//
// Section-type registry (ids are global across artifact kinds so a reader
// handed the wrong artifact fails with "missing section", not garbage):
//    1 NETWORK       corpus fan graph          (snapshot.cpp)
//    2 STORIES       corpus story metadata     (snapshot.cpp)
//    3 (retired: version-1 monolithic vote body; do not reuse)
//    4 TOPUSERS      corpus top-user ranking   (snapshot.cpp)
//    5 VOTES_INDEX   chunked vote offsets + chunk table
//    6 VOTES_USERS   one voter-column chunk (repeated; i-th entry = chunk i)
//    7 VOTES_TIMES   one time-column chunk  (repeated; i-th entry = chunk i)
//    8 MODELINFO     generative model id       (snapshot.cpp)
//   16 STREAM_META   stream checkpoint header  (src/stream/checkpoint.cpp)
//   17 STREAM_STATE  stream per-story progress (src/stream/checkpoint.cpp)
//   18 SERVE_STORIES live-ingest story identities + bounded vote prefixes
//                    (src/stream/checkpoint.cpp; present in live-mode
//                    checkpoints only)
// Unknown types are ignored by readers (forward-compatible extensions);
// claim a fresh id here before writing a new section kind. A type may
// repeat (chunked sections); `find`/`open` return the first entry and
// `entries` returns all of them in table order.
//
// Versioning policy: the version bumps whenever a reader of the old code
// could misread a new file (section layout or meaning changes). Adding a
// *new* section type does not bump it.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace digg::data {

inline constexpr std::uint32_t kSnapshotVersion = 2;

namespace snapfmt {

enum SectionType : std::uint32_t {
  kNetwork = 1,
  kStories = 2,
  kTopUsers = 4,
  kVotesIndex = 5,
  kVotesUsers = 6,
  kVotesTimes = 7,
  kModelInfo = 8,
  kStreamMeta = 16,
  kStreamState = 17,
  kServeStories = 18,
};

struct SectionEntry {
  std::uint32_t type = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;  // per-section FNV-1a
};
inline constexpr std::size_t kEntryBytesV2 = 32;   // on-disk table entry
inline constexpr std::size_t kHeaderBytesV2 = 24;  // magic+version+count+offset

/// FNV-1a over 8-byte little-endian words, final partial word zero-padded.
/// Word-at-a-time keeps the multiply chain 8x shorter than the classic
/// byte-wise form — checksumming is on both the save and load hot paths.
/// `seed` chains buffers: for buffers whose sizes are multiples of 8,
/// fnv1a(b, fnv1a(a)) == fnv1a(a ++ b).
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
[[nodiscard]] std::uint64_t fnv1a(const char* data, std::size_t size,
                                  std::uint64_t seed = kFnvBasis);

/// Append-only byte sink for section bodies.
class ByteBuffer {
 public:
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;  // an empty column's data() may be null
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  template <typename T>
  void pod(T v) {
    raw(&v, sizeof(T));
  }
  template <typename T>
  void column(const std::vector<T>& v) {
    raw(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void column(std::span<const T> v) {
    raw(v.data(), v.size() * sizeof(T));
  }
  /// Zero-pad so the next write lands on an 8-byte boundary relative to
  /// the body start. Keeps u64/f64 columns alignable in mapped sections.
  void pad8() {
    static constexpr char kZeros[8] = {};
    if (buf_.size() % 8 != 0) raw(kZeros, 8 - buf_.size() % 8);
  }
  [[nodiscard]] const std::vector<char>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<char> buf_;
};

/// Bounds-checked cursor over a byte range; throws the shared "truncated
/// file (section overruns payload)" error on overrun, prefixed with
/// `context` (the file's "<path>: ", which must outlive the reader).
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size,
             std::string_view context = {})
      : data_(data), size_(size), context_(context) {}

  template <typename T>
  T pod() {
    T v{};
    read_into(&v, sizeof(T));
    return v;
  }
  void read_into(void* dst, std::size_t bytes) {
    // Compare against the remainder: `pos_ + bytes` can wrap to a small
    // value for hostile section sizes near SIZE_MAX and pass the check.
    if (pos_ > size_ || bytes > size_ - pos_) overrun();
    std::memcpy(dst, data_ + pos_, bytes);
    pos_ += bytes;
  }
  /// Skip forward so the cursor sits on an 8-byte boundary (sections
  /// zero-pad between columns of different widths).
  void align8() {
    if (pos_ % 8 != 0) {
      char pad[8];
      read_into(pad, 8 - pos_ % 8);
    }
  }
  /// Borrow `bytes` bytes in place (no copy); the span aliases the
  /// underlying buffer, so it is only valid while that buffer lives.
  [[nodiscard]] std::span<const char> borrow(std::size_t bytes) {
    if (pos_ > size_ || bytes > size_ - pos_) overrun();
    const std::span<const char> s(data_ + pos_, bytes);
    pos_ += bytes;
    return s;
  }
  template <typename T>
  std::vector<T> column(std::size_t count) {
    check_count(count, sizeof(T));
    std::vector<T> v(count);
    if (count > 0) read_into(v.data(), count * sizeof(T));
    return v;
  }

 private:
  /// Bounds an element count read from the file by the bytes left, so a
  /// hostile count fails as a truncation before anything is allocated.
  void check_count(std::size_t count, std::size_t width) const {
    if (pos_ > size_ || count > (size_ - pos_) / width) overrun();
  }
  [[noreturn]] void overrun() const {
    throw std::runtime_error(std::string(context_) +
                             "truncated file (section overruns payload)");
  }

  const char* data_;
  std::size_t size_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

/// One section to be written: a claimed type id plus its encoded body.
struct Section {
  std::uint32_t type = 0;
  ByteBuffer body;
};

/// Streams a container to disk section by section: sections are written
/// (and checksummed) as they are added, the table and trailing checksum
/// land in `finish()`. Working set is one section body at a time — this is
/// what lets million-user corpus generation write votes in bounded RAM.
///
/// The bytes go to `<path>.tmp`, which `finish()` renames over `path`, so
/// `path` only ever holds a complete file: a reader never sees a half-
/// written one, and a reader that mapped the previous file keeps its own
/// copy (truncating a mapped file in place makes the mapping's reads die
/// of SIGBUS). A writer destroyed before `finish()` removes its `.tmp` and
/// leaves `path` as it was. No fsync: a crash can still lose the rename.
class SectionFileWriter {
 public:
  /// Opens `<path>.tmp` (parent directories are created) and reserves the
  /// header. Throws std::runtime_error on I/O failure.
  explicit SectionFileWriter(const std::filesystem::path& path);
  SectionFileWriter(const SectionFileWriter&) = delete;
  SectionFileWriter& operator=(const SectionFileWriter&) = delete;
  ~SectionFileWriter();

  /// Appends one section body (types may repeat — chunked sections).
  void add(std::uint32_t type, std::span<const char> body);
  void add(std::uint32_t type, const ByteBuffer& body) {
    add(type, std::span<const char>(body.bytes()));
  }

  /// Writes table + checksums, patches the header and renames the file
  /// into place. Throws std::runtime_error on I/O failure.
  void finish();

 private:
  void put(const void* p, std::size_t n);
  void pad_to8();

  std::filesystem::path path_;
  std::filesystem::path tmp_;  // `<path>.tmp` until finish() renames it
  std::ofstream out_;
  std::vector<SectionEntry> table_;
  std::uint64_t offset_ = kHeaderBytesV2;
  bool finished_ = false;
};

/// Assembles and writes a whole container in one call. Throws
/// std::runtime_error on I/O failure.
void write_section_file(const std::filesystem::path& path,
                        std::span<const Section> sections);

/// A memory-mapped container — the one reader of the format. Header and
/// table are validated eagerly (size, magic, version, bounds, header/table
/// checksum, with the distinct error messages the malformed-file tests rely
/// on); each section's own checksum is verified lazily on the first
/// `open`/`view` of its entry, so opening a multi-gigabyte snapshot costs
/// milliseconds and sections that are never touched are never read off
/// disk. `verify_all` gives the eager guarantee instead. Section views are
/// zero-copy spans into the mapping and stay valid for the lifetime of this
/// object; section *contents* are the caller's to parse and validate. Lazy
/// verification is thread-safe: concurrent first opens may both checksum
/// the section, but the verified flag is sticky.
class MmapSectionFile {
 public:
  explicit MmapSectionFile(const std::filesystem::path& path);
  MmapSectionFile(const MmapSectionFile&) = delete;
  MmapSectionFile& operator=(const MmapSectionFile&) = delete;
  ~MmapSectionFile();

  [[nodiscard]] const std::vector<SectionEntry>& table() const {
    return table_;
  }
  [[nodiscard]] const SectionEntry& find(std::uint32_t type) const;
  [[nodiscard]] std::vector<const SectionEntry*> entries(
      std::uint32_t type) const;

  /// Zero-copy body view; verifies the entry's checksum on first use.
  /// `e` must be a reference into `table()`.
  [[nodiscard]] std::span<const char> view(const SectionEntry& e) const;
  [[nodiscard]] std::span<const char> view(std::uint32_t type) const {
    return view(find(type));
  }
  /// A bounds-checked reader over a (checksum-verified) section body.
  [[nodiscard]] ByteReader open(const SectionEntry& e) const {
    const std::span<const char> s = view(e);
    return ByteReader(s.data(), s.size(), context_);
  }
  [[nodiscard]] ByteReader open(std::uint32_t type) const {
    return open(find(type));
  }
  /// Verifies every entry's checksum now, unknown section types included;
  /// throws "checksum mismatch" on the first bad one.
  void verify_all() const;

  [[nodiscard]] std::size_t size_bytes() const { return size_; }
  [[nodiscard]] const std::string& context() const { return context_; }

 private:
  const char* data_ = nullptr;  // whole-file mapping
  std::size_t size_ = 0;
  std::vector<SectionEntry> table_;
  // One sticky "checksum verified" flag per table entry.
  std::unique_ptr<std::atomic<std::uint8_t>[]> verified_;
  std::string context_;  // "<path>: " prefix for error messages
};

}  // namespace snapfmt
}  // namespace digg::data
