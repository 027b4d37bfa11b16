#include "src/data/snapshot_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <string>

namespace digg::data::snapfmt {

namespace {

constexpr char kMagic[8] = {'D', 'I', 'G', 'G', 'S', 'N', 'A', 'P'};
constexpr char kZeros[8] = {};

std::string context_for(const std::filesystem::path& path) {
  return path.string() + ": ";
}

/// Checks the magic and version of a mapped file image of at least
/// kHeaderBytesV2 + 8 bytes, then parses and validates its table, verifies
/// the header/table checksum, and returns the table. Section-body checksums
/// are left to MmapSectionFile::view.
std::vector<SectionEntry> read_table(const std::string& ctx, const char* data,
                                     std::size_t size) {
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(ctx + "bad magic (not a DIGGSNAP file)");
  std::uint32_t version;
  std::memcpy(&version, data + sizeof(kMagic), sizeof(version));
  if (version != kSnapshotVersion)
    throw std::runtime_error(ctx + "unsupported version " +
                             std::to_string(version) + " (reader supports " +
                             std::to_string(kSnapshotVersion) + ")");
  std::uint32_t count;
  std::uint64_t table_offset;
  std::memcpy(&count, data + 12, sizeof(count));
  std::memcpy(&table_offset, data + 16, sizeof(table_offset));
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(count) * kEntryBytesV2;
  if (table_offset < kHeaderBytesV2 || table_offset > size ||
      table_bytes + sizeof(std::uint64_t) != size - table_offset)
    throw std::runtime_error(ctx + "truncated file (section table cut off)");

  std::vector<SectionEntry> table(count);
  ByteReader r(data + table_offset, static_cast<std::size_t>(table_bytes),
               ctx);
  for (SectionEntry& e : table) {
    e.type = r.pod<std::uint32_t>();
    e.flags = r.pod<std::uint32_t>();
    e.offset = r.pod<std::uint64_t>();
    e.size = r.pod<std::uint64_t>();
    e.checksum = r.pod<std::uint64_t>();
    if (e.offset < kHeaderBytesV2 || e.offset > table_offset ||
        e.size > table_offset - e.offset)
      throw std::runtime_error(ctx + "truncated file (section overruns)");
  }

  // Header (24B) and table (count * 32B) are both whole numbers of fnv
  // words, so chaining equals checksumming their concatenation.
  std::uint64_t meta = fnv1a(data, kHeaderBytesV2);
  meta = fnv1a(data + table_offset, static_cast<std::size_t>(table_bytes),
               meta);
  std::uint64_t stored;
  std::memcpy(&stored, data + table_offset + table_bytes, sizeof(stored));
  if (meta != stored)
    throw std::runtime_error(ctx + "checksum mismatch (corrupt snapshot)");
  return table;
}

}  // namespace

std::uint64_t fnv1a(const char* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, data + i, size - i);
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Streaming writer

SectionFileWriter::SectionFileWriter(const std::filesystem::path& path)
    : path_(path), tmp_(path.string() + ".tmp") {
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("cannot write " + tmp_.string());
  // Header with count/table_offset placeholders; finish() patches them.
  put(kMagic, sizeof(kMagic));
  const std::uint32_t version = kSnapshotVersion;
  put(&version, sizeof(version));
  const std::uint32_t count = 0;
  put(&count, sizeof(count));
  const std::uint64_t table_offset = 0;
  put(&table_offset, sizeof(table_offset));
}

SectionFileWriter::~SectionFileWriter() {
  if (finished_) return;
  out_.close();
  std::error_code ignored;
  std::filesystem::remove(tmp_, ignored);
}

void SectionFileWriter::put(const void* p, std::size_t n) {
  out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!out_) throw std::runtime_error("short write to " + tmp_.string());
}

void SectionFileWriter::pad_to8() {
  if (offset_ % 8 != 0) {
    const std::size_t pad = 8 - offset_ % 8;
    put(kZeros, pad);
    offset_ += pad;
  }
}

void SectionFileWriter::add(std::uint32_t type, std::span<const char> body) {
  if (finished_)
    throw std::logic_error("SectionFileWriter: add after finish");
  pad_to8();
  SectionEntry e;
  e.type = type;
  e.offset = offset_;
  e.size = body.size();
  e.checksum = fnv1a(body.data(), body.size());
  table_.push_back(e);
  put(body.data(), body.size());
  offset_ += body.size();
}

void SectionFileWriter::finish() {
  if (finished_)
    throw std::logic_error("SectionFileWriter: finish called twice");
  pad_to8();
  const std::uint64_t table_offset = offset_;
  ByteBuffer table;
  for (const SectionEntry& e : table_) {
    table.pod(e.type);
    table.pod(e.flags);
    table.pod(e.offset);
    table.pod(e.size);
    table.pod(e.checksum);
  }
  put(table.bytes().data(), table.size());

  ByteBuffer header;
  header.raw(kMagic, sizeof(kMagic));
  header.pod(std::uint32_t{kSnapshotVersion});
  header.pod(static_cast<std::uint32_t>(table_.size()));
  header.pod(table_offset);
  std::uint64_t meta = fnv1a(header.bytes().data(), header.size());
  meta = fnv1a(table.bytes().data(), table.size(), meta);
  put(&meta, sizeof(meta));

  out_.seekp(12);  // count + table_offset live at bytes [12, 24)
  if (!out_) throw std::runtime_error("short write to " + tmp_.string());
  put(header.bytes().data() + 12, kHeaderBytesV2 - 12);
  out_.close();
  if (!out_) throw std::runtime_error("short write to " + tmp_.string());
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec)
    throw std::runtime_error("cannot rename " + tmp_.string() + " to " +
                             path_.string() + ": " + ec.message());
  finished_ = true;
}

void write_section_file(const std::filesystem::path& path,
                        std::span<const Section> sections) {
  SectionFileWriter w(path);
  for (const Section& s : sections) w.add(s.type, s.body);
  w.finish();
}

// ---------------------------------------------------------------------------
// Mapped reader

MmapSectionFile::MmapSectionFile(const std::filesystem::path& path)
    : context_(context_for(path)) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot read " + path.string());
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot read " + path.string());
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ < kHeaderBytesV2 + sizeof(std::uint64_t)) {
    ::close(fd);
    throw std::runtime_error(context_ +
                             "truncated file (smaller than header)");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED)
    throw std::runtime_error("cannot read " + path.string());
  data_ = static_cast<const char*>(map);

  try {
    table_ = read_table(context_, data_, size_);
  } catch (...) {
    ::munmap(const_cast<char*>(data_), size_);
    throw;
  }
  verified_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(table_.size());
  for (std::size_t i = 0; i < table_.size(); ++i) verified_[i] = 0;
}

MmapSectionFile::~MmapSectionFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

const SectionEntry& MmapSectionFile::find(std::uint32_t type) const {
  for (const SectionEntry& e : table_)
    if (e.type == type) return e;
  throw std::runtime_error(context_ + "missing section " +
                           std::to_string(type));
}

std::vector<const SectionEntry*> MmapSectionFile::entries(
    std::uint32_t type) const {
  std::vector<const SectionEntry*> out;
  for (const SectionEntry& e : table_)
    if (e.type == type) out.push_back(&e);
  return out;
}

std::span<const char> MmapSectionFile::view(const SectionEntry& e) const {
  const auto idx = static_cast<std::size_t>(&e - table_.data());
  if (idx >= table_.size())
    throw std::logic_error("MmapSectionFile::view: entry not from table()");
  if (verified_[idx].load(std::memory_order_acquire) == 0) {
    if (fnv1a(data_ + e.offset, static_cast<std::size_t>(e.size)) !=
        e.checksum)
      throw std::runtime_error(context_ +
                               "checksum mismatch (corrupt snapshot)");
    verified_[idx].store(1, std::memory_order_release);
  }
  return {data_ + e.offset, static_cast<std::size_t>(e.size)};
}

void MmapSectionFile::verify_all() const {
  for (const SectionEntry& e : table_) (void)view(e);
}

}  // namespace digg::data::snapfmt
