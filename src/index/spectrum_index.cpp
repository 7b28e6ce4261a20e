#include "index/spectrum_index.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
#include "seq/kmer.hpp"
#include "util/atomic_file.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NGS_INDEX_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <fstream>
#endif

namespace ngs::index {

namespace {

using Kind = IndexError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& path,
                       const std::string& detail) {
  throw IndexError(kind, path + ": " + detail);
}

[[noreturn]] void fail_errno(const std::string& path,
                             const std::string& action) {
  fail(Kind::kIo, path, action + " failed: " + std::strerror(errno));
}

const char* section_name(SectionId id) {
  switch (id) {
    case SectionId::kCodes: return "codes";
    case SectionId::kCounts: return "counts";
    case SectionId::kBucketStarts: return "bucket_starts";
  }
  return "unknown";
}

/// Where the codes section starts: the header plus a full section
/// table, aligned. Writers reserve it up front, before any row is known.
constexpr std::uint64_t kPayloadStart =
    align_up(sizeof(IndexHeader) + kMaxSections * sizeof(SectionEntry));

/// Header + section-table fingerprint: the header bytes with the
/// checksum field zeroed, chained with the raw table rows. Because the
/// rows embed the per-payload checksums, this value changes whenever
/// any byte of the file changes.
std::uint64_t meta_checksum(IndexHeader header,
                            std::span<const SectionEntry> table) {
  header.header_checksum = 0;
  return fnv1a64(table.data(), table.size_bytes(),
                 fnv1a64(&header, sizeof(header)));
}

/// The backing bytes of a loaded index: an mmap (released on
/// destruction) or an owned buffer. Shared with every KSpectrum view
/// through the spectrum keepalive, so unmapping is deferred until the
/// last view is gone.
struct Mapping {
  const unsigned char* data = nullptr;
  std::size_t size = 0;
  void* mmap_base = nullptr;  // non-null => munmap on destruction
  std::vector<unsigned char> owned;

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
#if NGS_INDEX_POSIX
    if (mmap_base != nullptr) ::munmap(mmap_base, size);
#endif
  }
};

#if NGS_INDEX_POSIX

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

void read_exact_at(int fd, void* data, std::size_t n, std::uint64_t offset,
                   const std::string& path) {
  if (fault::should_fire(fault::sites::kIndexShortRead)) {
    fail(Kind::kTruncated, path,
         "unexpected end of file: injected fault at index.short_read");
  }
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ::ssize_t r = ::pread(fd, p, n, static_cast<::off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "read");
    }
    if (r == 0) fail(Kind::kTruncated, path, "unexpected end of file");
    p += r;
    offset += static_cast<std::uint64_t>(r);
    n -= static_cast<std::size_t>(r);
  }
}

#endif  // NGS_INDEX_POSIX

/// The validated metadata of a file: its header, its table as stored,
/// and the table's rows bound by section id. Every row is one of the
/// expected sections, bound exactly once, and lies inside the file with
/// the size the header implies; the bucket row stays zero (id 0) when
/// prefix_bits is 0.
struct Metadata {
  IndexHeader header;
  std::vector<SectionEntry> table;
  std::uint64_t file_size = 0;
  SectionEntry codes{};
  SectionEntry counts{};
  SectionEntry buckets{};
};

/// Bounds/shape validation of one bound section against the file.
void check_section(const SectionEntry& entry, std::uint64_t expected_bytes,
                   std::uint64_t file_size, const std::string& path) {
  const std::string label = std::string("section '") +
                            section_name(static_cast<SectionId>(entry.id)) +
                            "'";
  if (entry.offset % kSectionAlignment != 0) {
    std::ostringstream os;
    os << label << " offset " << entry.offset << " is not "
       << kSectionAlignment << "-byte aligned";
    fail(Kind::kBadLayout, path, os.str());
  }
  if (entry.offset > file_size || entry.bytes > file_size - entry.offset) {
    std::ostringstream os;
    os << "truncated index: " << label << " spans [" << entry.offset << ", "
       << entry.offset + entry.bytes << ") but the file has only "
       << file_size << " bytes";
    fail(Kind::kTruncated, path, os.str());
  }
  if (entry.bytes != expected_bytes) {
    std::ostringstream os;
    os << label << " holds " << entry.bytes
       << " bytes where the metadata implies " << expected_bytes;
    fail(Kind::kBadLayout, path, os.str());
  }
}

/// Validates everything that can be checked without touching payload
/// pages: magic, version, endianness, declared vs actual size, k and
/// the bucket width, the header checksum, and every table row.
Metadata parse_metadata(const unsigned char* head, std::size_t head_bytes,
                        std::uint64_t file_size, const std::string& path) {
  Metadata meta;
  meta.file_size = file_size;
  if (file_size < sizeof(IndexHeader) || head_bytes < sizeof(IndexHeader)) {
    std::ostringstream os;
    os << "truncated index: file is " << file_size
       << " bytes, a version-" << kFormatVersion << " header needs "
       << sizeof(IndexHeader);
    fail(Kind::kTruncated, path, os.str());
  }
  std::memcpy(&meta.header, head, sizeof(IndexHeader));
  const IndexHeader& h = meta.header;
  if (std::memcmp(h.magic, kIndexMagic, sizeof(kIndexMagic)) != 0) {
    fail(Kind::kBadMagic, path,
         "bad magic — not an ngs spectrum index file");
  }
  if (h.format_version != kFormatVersion) {
    std::ostringstream os;
    os << "unsupported index format version " << h.format_version
       << " (this build reads version " << kFormatVersion
       << "; an index is derived data, so rebuild it from the reads with "
          "this binary's `ngs-index build`)";
    fail(Kind::kVersionSkew, path, os.str());
  }
  if (h.endian_tag != kEndianTag) {
    fail(Kind::kEndianMismatch, path,
         "endianness mismatch — the index was written on a host with "
         "different byte order");
  }
  if (h.header_bytes != sizeof(IndexHeader)) {
    std::ostringstream os;
    os << "header size mismatch (" << h.header_bytes << " declared, "
       << sizeof(IndexHeader) << " expected)";
    fail(Kind::kBadLayout, path, os.str());
  }
  if (h.file_bytes != file_size) {
    std::ostringstream os;
    os << "truncated index: header declares " << h.file_bytes
       << " bytes but the file has " << file_size;
    fail(Kind::kTruncated, path, os.str());
  }
  // k first: the bucket-width cap below and every lookup compute 2 * k.
  if (h.k < 1 || h.k > static_cast<std::uint32_t>(seq::kMaxK)) {
    std::ostringstream os;
    os << "the header declares k=" << h.k << " outside [1, " << seq::kMaxK
       << "]";
    fail(Kind::kBadLayout, path, os.str());
  }
  // A bucket table is at most min(2k, 24) bits wide (the writer's
  // KSpectrum::auto_prefix_bits stays within 20), so its size never wraps.
  if (h.prefix_bits > std::min<std::uint32_t>(2 * h.k, 24)) {
    std::ostringstream os;
    os << "the header declares implausible prefix_bits " << h.prefix_bits
       << " (k=" << h.k << ")";
    fail(Kind::kBadLayout, path, os.str());
  }
  const std::uint32_t rows = h.prefix_bits > 0 ? 3 : 2;
  if (h.section_count != rows) {
    std::ostringstream os;
    os << "the header declares " << h.section_count
       << " sections where prefix_bits " << h.prefix_bits << " implies "
       << rows;
    fail(Kind::kBadLayout, path, os.str());
  }
  const std::uint64_t table_end =
      sizeof(IndexHeader) + std::uint64_t{rows} * sizeof(SectionEntry);
  if (table_end > file_size) {
    std::ostringstream os;
    os << "truncated index: section table needs " << table_end
       << " bytes, file has " << file_size;
    fail(Kind::kTruncated, path, os.str());
  }
  if (head_bytes < table_end) {
    fail(Kind::kIo, path, "internal error: metadata read too short");
  }
  meta.table.resize(rows);
  std::memcpy(meta.table.data(), head + sizeof(IndexHeader),
              meta.table.size() * sizeof(SectionEntry));
  const std::uint64_t expect = meta_checksum(meta.header, meta.table);
  if (fault::should_fire(fault::sites::kIndexChecksum)) {
    fail(Kind::kChecksum, path,
         "header checksum mismatch: injected fault at index.checksum");
  }
  if (expect != h.header_checksum) {
    std::ostringstream os;
    os << "header checksum mismatch (stored " << std::hex
       << h.header_checksum << ", computed " << expect
       << ") — the metadata is corrupt";
    fail(Kind::kChecksum, path, os.str());
  }

  // Bind every row: an unbound row would escape the bounds checks
  // below, yet a verifying load hashes what the rows describe.
  for (const SectionEntry& row : meta.table) {
    SectionEntry* slot = nullptr;
    switch (static_cast<SectionId>(row.id)) {
      case SectionId::kCodes: slot = &meta.codes; break;
      case SectionId::kCounts: slot = &meta.counts; break;
      case SectionId::kBucketStarts:
        if (h.prefix_bits > 0) slot = &meta.buckets;
        break;
    }
    if (slot == nullptr || slot->id != 0 || row.reserved != 0) {
      std::ostringstream os;
      os << "unexpected section-table row (id " << row.id
         << "): a version-1 table holds codes, counts and, when "
            "prefix_bits > 0, bucket_starts, each once";
      fail(Kind::kBadLayout, path, os.str());
    }
    *slot = row;
  }
  // Bound the entry count before it is multiplied into section sizes.
  if (h.distinct > file_size / sizeof(seq::KmerCode)) {
    std::ostringstream os;
    os << "truncated index: " << h.distinct << " entries cannot fit in a "
       << file_size << "-byte file";
    fail(Kind::kTruncated, path, os.str());
  }
  check_section(meta.codes, h.distinct * sizeof(seq::KmerCode), file_size,
                path);
  check_section(meta.counts, h.distinct * sizeof(std::uint32_t), file_size,
                path);
  if (h.prefix_bits > 0) {
    check_section(meta.buckets,
                  ((std::uint64_t{1} << h.prefix_bits) + 1) *
                      sizeof(std::uint64_t),
                  file_size, path);
  }
  return meta;
}

IndexInfo make_info(const Metadata& meta) {
  IndexInfo info;
  const IndexHeader& h = meta.header;
  info.format_version = h.format_version;
  info.build.k = static_cast<int>(h.k);
  info.build.both_strands = (h.flags & kFlagBothStrands) != 0;
  info.build.input_reads = h.input_reads;
  info.build.input_bases = h.input_bases;
  info.build.max_read_length = h.max_read_length;
  info.distinct = h.distinct;
  info.total_instances = h.total_instances;
  info.prefix_bits = static_cast<int>(h.prefix_bits);
  info.file_bytes = h.file_bytes;
  info.checksum = h.header_checksum;
  for (const auto& entry : meta.table) {
    info.sections.push_back({static_cast<SectionId>(entry.id), entry.offset,
                             entry.bytes, entry.checksum});
  }
  return info;
}

Metadata read_metadata_from_file(const std::string& path) {
  if (fault::should_fire(fault::sites::kIndexOpen)) {
    fail(Kind::kIo, path, "open failed: injected fault at index.open");
  }
  // One bounded read covers the header and the largest valid table.
  const std::uint64_t head_cap =
      sizeof(IndexHeader) + kMaxSections * sizeof(SectionEntry);
#if NGS_INDEX_POSIX
  FdGuard fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) fail_errno(path, "open");
  struct ::stat st{};
  if (::fstat(fd.fd, &st) != 0) fail_errno(path, "stat");
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  std::vector<unsigned char> head(static_cast<std::size_t>(
      std::min<std::uint64_t>(file_size, head_cap)));
  if (!head.empty()) read_exact_at(fd.fd, head.data(), head.size(), 0, path);
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(Kind::kIo, path, "open failed");
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  std::vector<unsigned char> head(static_cast<std::size_t>(
      std::min<std::uint64_t>(file_size, head_cap)));
  is.read(reinterpret_cast<char*>(head.data()),
          static_cast<std::streamsize>(head.size()));
  if (!is) fail(Kind::kIo, path, "read failed");
#endif
  return parse_metadata(head.data(), head.size(), file_size, path);
}

std::shared_ptr<Mapping> map_file(const std::string& path,
                                  std::uint64_t file_size, bool* mapped) {
  auto mapping = std::make_shared<Mapping>();
  mapping->size = static_cast<std::size_t>(file_size);
  *mapped = false;
#if NGS_INDEX_POSIX
  FdGuard fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) fail_errno(path, "open");
  // Injected mmap failure exercises the owned-buffer fallback: the load
  // must still succeed, just without zero-copy pages.
  if (!fault::should_fire(fault::sites::kIndexMmap) && file_size > 0) {
    void* base = ::mmap(nullptr, mapping->size, PROT_READ, MAP_PRIVATE,
                        fd.fd, 0);
    if (base != MAP_FAILED) {
      mapping->mmap_base = base;
      mapping->data = static_cast<const unsigned char*>(base);
      *mapped = true;
      return mapping;
    }
    // Fall through to the owned-buffer path on any mmap failure.
  }
  mapping->owned.resize(mapping->size);
  if (!mapping->owned.empty()) {
    read_exact_at(fd.fd, mapping->owned.data(), mapping->owned.size(), 0,
                  path);
  }
  mapping->data = mapping->owned.data();
  return mapping;
#else
  std::ifstream is(path, std::ios::binary);
  if (!is) fail(Kind::kIo, path, "open failed");
  mapping->owned.resize(mapping->size);
  is.read(reinterpret_cast<char*>(mapping->owned.data()),
          static_cast<std::streamsize>(mapping->owned.size()));
  if (!is) fail(Kind::kIo, path, "read failed");
  mapping->data = mapping->owned.data();
  return mapping;
#endif
}

/// Recomputes the checksum of every bound section over the loaded bytes.
void verify_checksums(const Metadata& meta, const Mapping& mapping,
                      const std::string& path) {
  for (const SectionEntry* entry : {&meta.codes, &meta.counts,
                                    &meta.buckets}) {
    if (entry->id == 0) continue;  // no bucket table
    const std::uint64_t actual = fnv1a64(
        mapping.data + entry->offset, static_cast<std::size_t>(entry->bytes));
    if (actual != entry->checksum) {
      std::ostringstream os;
      os << "checksum mismatch in section '"
         << section_name(static_cast<SectionId>(entry->id)) << "' (stored "
         << std::hex << entry->checksum << ", computed " << actual
         << ") — the payload is corrupt; rebuild the index";
      fail(Kind::kChecksum, path, os.str());
    }
  }
}

/// The spectrum invariants over the payload: sorted unique in-range
/// codes with positive counts, counts summing to the declared total,
/// and a bucket table that partitions the codes.
void validate_payload(const kspec::KSpectrum& view, const IndexHeader& h,
                      const std::string& path) {
  const auto invalid = [&](const std::string& detail) {
    fail(Kind::kInvalidPayload, path, "invalid spectrum payload: " + detail);
  };
  if (const auto err = kspec::KSpectrum::validate_sorted_counts(
          view.codes(), view.counts(), static_cast<int>(h.k))) {
    invalid(*err);
  }
  std::uint64_t total = 0;
  for (const std::uint32_t c : view.counts()) total += c;
  if (total != h.total_instances) {
    std::ostringstream os;
    os << "counts sum to " << total << " but the header declares "
       << h.total_instances << " total instances";
    invalid(os.str());
  }
  const auto buckets = view.bucket_starts();
  if (!buckets.empty() &&
      (buckets.front() != 0 || buckets.back() != h.distinct ||
       !std::is_sorted(buckets.begin(), buckets.end()))) {
    invalid("bucket table does not partition the code array");
  }
}

/// Runs `step`, rewrapping the shared ngs::Error(kIo) util::AtomicFile
/// raises as IndexError, so index writers keep their taxonomy (exit
/// code 4) end to end.
template <typename Step>
void as_index_error(Step&& step) {
  try {
    step();
  } catch (const IndexError&) {
    throw;
  } catch (const ngs::Error& e) {
    throw IndexError(Kind::kIo, e.what());
  }
}

/// Fault gate + AtomicFile append.
void emit_through(util::AtomicFile& file, const void* data,
                  std::uint64_t bytes) {
  if (fault::should_fire(fault::sites::kIndexWrite)) {
    fail(Kind::kIo, file.target_path(),
         "write failed: injected fault at index.write");
  }
  as_index_error([&] { file.write(data, static_cast<std::size_t>(bytes)); });
}

/// Zero-pads `file` to the next section boundary and returns it.
std::uint64_t pad_to_section(util::AtomicFile& file) {
  static constexpr unsigned char kZeros[kSectionAlignment] = {};
  const std::uint64_t offset = align_up(file.offset());
  emit_through(file, kZeros, offset - file.offset());
  return offset;
}

/// Streams `n` elements of type T starting at byte `offset` of `file`'s
/// temp file back through a fixed-size buffer, calling
/// consume(data, count) per chunk.
template <typename T, typename Consume>
void read_back(util::AtomicFile& file, std::uint64_t offset, std::uint64_t n,
               Consume&& consume) {
  if (n == 0) return;
  as_index_error([&] { file.flush(); });
  const std::string& path = file.temp_path();
  struct Closer {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };
  const std::unique_ptr<std::FILE, Closer> in(std::fopen(path.c_str(), "rb"));
  if (in == nullptr) fail_errno(path, "open for read-back");
  if (std::fseek(in.get(), static_cast<long>(offset), SEEK_SET) != 0) {
    fail_errno(path, "seek");
  }
  std::vector<T> buffer(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, (std::size_t{64} << 10) / sizeof(T))));
  while (n > 0) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, buffer.size()));
    if (std::fread(buffer.data(), sizeof(T), chunk, in.get()) != chunk) {
      fail(Kind::kIo, path, "read-back failed");
    }
    consume(buffer.data(), chunk);
    n -= chunk;
  }
}

util::AtomicFile make_index_file(const std::string& path) {
  util::AtomicFileOptions options;
  options.fsync_file = true;
  options.fsync_dir = true;
  options.error_site = "index.write";
  return util::AtomicFile(path, options);
}

}  // namespace

std::uint64_t write_spectrum_index(const std::string& path,
                                   const kspec::KSpectrum& spectrum,
                                   const IndexBuildInfo& build) {
  if (build.k != spectrum.k()) {
    fail(Kind::kBadLayout, path,
         "build info k does not match the spectrum's k");
  }
  ShardedIndexWriter writer(path, build, 0, 1);
  writer.append_shard(0, spectrum.codes(), spectrum.counts());
  return writer.finish();
}

// --- ShardedIndexWriter ----------------------------------------------

struct ShardedIndexWriter::Impl {
  util::AtomicFile file;
  /// The counts section until finish() appends it; never committed, so
  /// its temp file goes with the writer.
  util::AtomicFile counts;
  IndexBuildInfo build;
  int shard_bits = 0;
  std::size_t shard_count = 0;
  std::size_t runs = 0;
  std::uint32_t last_prefix = 0;
  std::uint64_t distinct = 0;
  std::uint64_t total_instances = 0;
  std::uint64_t codes_checksum = kFnv1aOffset;
  std::uint64_t counts_checksum = kFnv1aOffset;
  bool finished = false;

  explicit Impl(const std::string& path)
      : file(make_index_file(path)),
        counts(file.temp_path() + ".counts",
               util::AtomicFileOptions{.error_site = "index.write"}) {}

  /// The run prefix `code` belongs to.
  std::uint32_t prefix_of(seq::KmerCode code) const noexcept {
    if (shard_bits == 0) return 0;
    return static_cast<std::uint32_t>(code >> (2 * build.k - shard_bits));
  }
};

ShardedIndexWriter::ShardedIndexWriter(const std::string& path,
                                       const IndexBuildInfo& build,
                                       int shard_bits,
                                       std::size_t shard_count)
    : impl_(std::make_unique<Impl>(path)) {
  if (build.k < 1 || build.k > seq::kMaxK) {
    fail(Kind::kBadLayout, path, "build info k is out of range");
  }
  if (shard_bits < 0 || shard_bits > std::min(8, 2 * build.k) ||
      shard_count > (std::size_t{1} << shard_bits)) {
    fail(Kind::kBadLayout, path, "invalid run split parameters");
  }
  impl_->build = build;
  impl_->shard_bits = shard_bits;
  impl_->shard_count = shard_count;
  // Reserve the metadata region; finish() writes it once every offset
  // and checksum is known, and the codes follow it directly.
  static constexpr unsigned char kZeros[kPayloadStart] = {};
  emit_through(impl_->file, kZeros, kPayloadStart);
}

ShardedIndexWriter::~ShardedIndexWriter() = default;

void ShardedIndexWriter::append_shard(std::uint32_t prefix,
                                      std::span<const seq::KmerCode> codes,
                                      std::span<const std::uint32_t> counts) {
  Impl& im = *impl_;
  const std::string& path = im.file.target_path();
  if (im.finished) fail(Kind::kBadLayout, path, "writer already finished");
  if (im.runs == im.shard_count) {
    fail(Kind::kBadLayout, path, "more runs appended than declared");
  }
  if (prefix >= (std::uint64_t{1} << im.shard_bits) ||
      (im.runs > 0 && prefix <= im.last_prefix)) {
    fail(Kind::kBadLayout, path,
         "run prefixes must ascend within the split range");
  }
  if (!codes.empty() && (im.prefix_of(codes.front()) != prefix ||
                         im.prefix_of(codes.back()) != prefix)) {
    fail(Kind::kBadLayout, path,
         "run codes fall outside the declared prefix range");
  }
  // With the prefix checks, the runs concatenate to a valid spectrum:
  // finish() indexes the bucket table by these codes.
  if (const auto err = kspec::KSpectrum::validate_sorted_counts(
          codes, counts, im.build.k)) {
    fail(Kind::kBadLayout, path, "invalid run: " + *err);
  }
  ++im.runs;
  im.last_prefix = prefix;
  if (codes.empty()) return;
  emit_through(im.file, codes.data(), codes.size_bytes());
  emit_through(im.counts, counts.data(), counts.size_bytes());
  im.codes_checksum =
      fnv1a64(codes.data(), codes.size_bytes(), im.codes_checksum);
  im.counts_checksum =
      fnv1a64(counts.data(), counts.size_bytes(), im.counts_checksum);
  im.distinct += codes.size();
  for (const std::uint32_t c : counts) im.total_instances += c;
}

std::uint64_t ShardedIndexWriter::finish() {
  Impl& im = *impl_;
  const std::string& path = im.file.target_path();
  if (im.finished) fail(Kind::kBadLayout, path, "writer already finished");
  if (im.runs != im.shard_count) {
    std::ostringstream os;
    os << "finish after " << im.runs << " runs, " << im.shard_count
       << " declared";
    fail(Kind::kBadLayout, path, os.str());
  }
  const int k = im.build.k;
  SectionEntry table[kMaxSections] = {};
  std::uint32_t rows = 0;
  const auto add_row = [&](SectionId id, std::uint64_t offset,
                           std::uint64_t bytes, std::uint64_t checksum) {
    table[rows++] = {static_cast<std::uint32_t>(id), 0, offset, bytes,
                     checksum};
  };
  add_row(SectionId::kCodes, kPayloadStart,
          im.distinct * sizeof(seq::KmerCode), im.codes_checksum);

  const std::uint64_t counts_offset = pad_to_section(im.file);
  read_back<std::uint32_t>(im.counts, 0, im.distinct,
                           [&](const std::uint32_t* data, std::size_t n) {
                             emit_through(im.file, data,
                                          n * sizeof(std::uint32_t));
                           });
  im.counts.abort();
  add_row(SectionId::kCounts, counts_offset,
          im.distinct * sizeof(std::uint32_t), im.counts_checksum);

  // The bucket table of the flat spectrum, at the width an in-memory
  // build of it picks, counted from the codes already on disk.
  const int prefix_bits = kspec::KSpectrum::auto_prefix_bits(
      static_cast<std::size_t>(im.distinct), k);
  if (prefix_bits > 0) {
    std::vector<std::uint64_t> buckets((std::size_t{1} << prefix_bits) + 1);
    const int shift = 2 * k - prefix_bits;
    read_back<seq::KmerCode>(im.file, kPayloadStart, im.distinct,
                             [&](const seq::KmerCode* codes, std::size_t n) {
                               for (std::size_t i = 0; i < n; ++i) {
                                 ++buckets[(codes[i] >> shift) + 1];
                               }
                             });
    for (std::size_t b = 1; b < buckets.size(); ++b) {
      buckets[b] += buckets[b - 1];
    }
    const std::uint64_t offset = pad_to_section(im.file);
    const std::uint64_t bytes = buckets.size() * sizeof(std::uint64_t);
    emit_through(im.file, buckets.data(), bytes);
    add_row(SectionId::kBucketStarts, offset, bytes,
            fnv1a64(buckets.data(), static_cast<std::size_t>(bytes)));
  }
  const std::uint64_t file_bytes = pad_to_section(im.file);

  IndexHeader header{};
  std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
  header.format_version = kFormatVersion;
  header.header_bytes = sizeof(IndexHeader);
  header.k = static_cast<std::uint32_t>(k);
  header.flags = im.build.both_strands ? kFlagBothStrands : 0;
  header.distinct = im.distinct;
  header.total_instances = im.total_instances;
  header.prefix_bits = static_cast<std::uint32_t>(prefix_bits);
  header.section_count = rows;
  header.input_reads = im.build.input_reads;
  header.input_bases = im.build.input_bases;
  header.max_read_length = im.build.max_read_length;
  header.endian_tag = kEndianTag;
  header.file_bytes = file_bytes;
  header.header_checksum = meta_checksum(header, {table, rows});

  as_index_error([&] {
    im.file.write_at(0, &header, sizeof(header));
    im.file.write_at(sizeof(header), table, rows * sizeof(SectionEntry));
    im.file.commit();
  });
  im.finished = true;
  return header.header_checksum;
}

IndexInfo SpectrumIndex::read_info(const std::string& path) {
  return make_info(read_metadata_from_file(path));
}

SpectrumIndex SpectrumIndex::load(const std::string& path,
                                  const LoadOptions& options) {
  const Metadata meta = read_metadata_from_file(path);
  const IndexHeader& h = meta.header;

  SpectrumIndex index;
  index.path_ = path;
  index.info_ = make_info(meta);
  const std::shared_ptr<const Mapping> mapping =
      map_file(path, meta.file_size, &index.info_.mapped);
  if (options.verify_checksums) verify_checksums(meta, *mapping, path);

  const auto at = [&](const SectionEntry& section) {
    return mapping->data + section.offset;
  };
  const auto n = static_cast<std::size_t>(h.distinct);
  std::span<const std::uint64_t> buckets;
  if (h.prefix_bits > 0) {
    buckets = {reinterpret_cast<const std::uint64_t*>(at(meta.buckets)),
               (std::size_t{1} << h.prefix_bits) + 1};
  }
  index.spectrum_ = kspec::KSpectrum::adopt_external(
      {reinterpret_cast<const seq::KmerCode*>(at(meta.codes)), n},
      {reinterpret_cast<const std::uint32_t*>(at(meta.counts)), n}, buckets,
      static_cast<int>(h.k), h.total_instances,
      static_cast<int>(h.prefix_bits), mapping);
  if (options.validate_payload) validate_payload(index.spectrum_, h, path);
  return index;
}

}  // namespace ngs::index
