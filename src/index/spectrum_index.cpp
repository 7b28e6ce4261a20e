#include "index/spectrum_index.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
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
    case SectionId::kShardTable: return "shard_table";
  }
  return "unknown";
}

/// Header + section-table fingerprint: the header bytes with the
/// checksum field zeroed, chained with the raw table rows. Because the
/// rows embed the per-payload checksums, this value changes whenever
/// any byte of the file changes.
std::uint64_t meta_checksum(IndexHeader header,
                            const std::vector<SectionEntry>& table) {
  header.header_checksum = 0;
  std::uint64_t state = fnv1a64(&header, sizeof(header));
  for (const auto& entry : table) {
    state = fnv1a64(&entry, sizeof(entry), state);
  }
  return state;
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

/// A bucket table is at most min(2k, 24) bits wide (the cap
/// KSpectrum::rebuild_prefix_index applies), so its size never wraps.
void check_prefix_bits(std::uint32_t bits, std::uint32_t k,
                       const std::string& where, const std::string& path) {
  if (bits > std::min<std::uint32_t>(2 * k, 24)) {
    std::ostringstream os;
    os << where << " declares implausible prefix_bits " << bits << " (k="
       << k << ")";
    fail(Kind::kBadLayout, path, os.str());
  }
}

struct Metadata {
  IndexHeader header;
  std::vector<SectionEntry> table;
  std::vector<ShardEntry> shards;  // v2 only
  std::uint64_t file_size = 0;
};

/// Validates everything that can be checked without touching payload
/// pages: magic, version, endianness, declared vs actual size, table
/// bounds, and the header checksum.
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
  if (h.format_version != kFormatVersion &&
      h.format_version != kFormatVersionSharded) {
    std::ostringstream os;
    os << "unsupported index format version " << h.format_version
       << " (this build reads versions " << kFormatVersion << " and "
       << kFormatVersionSharded
       << "; rebuild the index with this binary's ngs-index)";
    fail(Kind::kVersionSkew, path, os.str());
  }
  const bool sharded = h.format_version == kFormatVersionSharded;
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
  if (h.section_count > (sharded ? kMaxSectionsV2 : kMaxSectionsV1)) {
    std::ostringstream os;
    os << "implausible section count " << h.section_count;
    fail(Kind::kBadLayout, path, os.str());
  }
  if (!sharded) {
    if (h.shard_count != 0 || h.shard_bits != 0) {
      fail(Kind::kBadLayout, path,
           "version-1 index carries nonzero shard fields");
    }
    check_prefix_bits(h.prefix_bits, h.k, "the header", path);
  } else {
    if (h.shard_count < 2 || h.shard_count > kMaxShards ||
        h.shard_bits < 1 || h.shard_bits > 8 ||
        h.shard_bits > 2 * h.k ||
        h.shard_count > (std::uint64_t{1} << h.shard_bits)) {
      std::ostringstream os;
      os << "implausible shard split (" << h.shard_count << " shards, "
         << h.shard_bits << " shard bits, k=" << h.k << ")";
      fail(Kind::kBadLayout, path, os.str());
    }
    if (h.prefix_bits != 0) {
      fail(Kind::kBadLayout, path,
           "sharded index carries a global prefix table (per-shard "
           "tables are required)");
    }
  }
  const std::uint64_t table_end =
      sizeof(IndexHeader) +
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (table_end > file_size) {
    std::ostringstream os;
    os << "truncated index: section table needs " << table_end
       << " bytes, file has " << file_size;
    fail(Kind::kTruncated, path, os.str());
  }
  if (head_bytes < table_end) {
    fail(Kind::kIo, path, "internal error: metadata read too short");
  }
  meta.table.resize(h.section_count);
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
  return meta;
}

/// "section 'codes'", naming the owning shard on a version-2 file.
std::string section_label(SectionId id, std::uint32_t prefix,
                          const Metadata& meta) {
  std::string label = std::string("section '") + section_name(id) + "'";
  if (meta.header.format_version == kFormatVersionSharded &&
      id != SectionId::kShardTable) {
    label += " of shard " + std::to_string(prefix);
  }
  return label;
}

/// Bounds/shape validation of one known section against the metadata.
void check_section(const SectionEntry& entry, std::uint64_t expected_bytes,
                   const Metadata& meta, const std::string& path) {
  const std::string label = section_label(
      static_cast<SectionId>(entry.id), entry.shard_prefix, meta);
  if (entry.offset % kSectionAlignment != 0) {
    std::ostringstream os;
    os << label << " offset " << entry.offset << " is not "
       << kSectionAlignment << "-byte aligned";
    fail(Kind::kBadLayout, path, os.str());
  }
  if (entry.offset > meta.file_size ||
      entry.bytes > meta.file_size - entry.offset) {
    std::ostringstream os;
    os << "truncated index: " << label << " spans [" << entry.offset << ", "
       << entry.offset + entry.bytes << ") but the file has only "
       << meta.file_size << " bytes";
    fail(Kind::kTruncated, path, os.str());
  }
  if (entry.bytes != expected_bytes) {
    std::ostringstream os;
    os << label << " holds " << entry.bytes
       << " bytes where the metadata implies " << expected_bytes;
    fail(Kind::kBadLayout, path, os.str());
  }
}

/// The section of `id` belonging to shard `prefix` (0 on a v1 file and
/// for the shard table).
const SectionEntry& require_section(const Metadata& meta, SectionId id,
                                    std::uint32_t prefix,
                                    const std::string& path) {
  for (const auto& entry : meta.table) {
    if (entry.id == static_cast<std::uint32_t>(id) &&
        entry.shard_prefix == prefix) {
      return entry;
    }
  }
  fail(Kind::kBadLayout, path,
       "missing required " + section_label(id, prefix, meta));
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
  info.shard_count = h.shard_count;
  info.shard_bits = h.shard_bits;
  for (const auto& entry : meta.table) {
    info.sections.push_back({static_cast<SectionId>(entry.id), entry.offset,
                             entry.bytes, entry.checksum,
                             entry.shard_prefix});
  }
  for (const auto& shard : meta.shards) {
    info.shards.push_back({shard.prefix, shard.prefix_index_bits,
                           shard.distinct, shard.total_instances});
  }
  return info;
}

/// Structural validation of the v2 shard rows against the header: the
/// rows must partition the key space ascending and their entry counts
/// must sum to the header's totals.
void validate_shard_rows(const Metadata& meta, const std::string& path) {
  const IndexHeader& h = meta.header;
  std::uint64_t distinct = 0, total = 0;
  for (std::size_t i = 0; i < meta.shards.size(); ++i) {
    const ShardEntry& s = meta.shards[i];
    if (s.prefix >= (std::uint64_t{1} << h.shard_bits) ||
        (i > 0 && meta.shards[i - 1].prefix >= s.prefix)) {
      fail(Kind::kBadLayout, path,
           "shard table prefixes are not ascending within the shard "
           "split range");
    }
    check_prefix_bits(s.prefix_index_bits, h.k,
                      "shard " + std::to_string(s.prefix), path);
    if (s.distinct == 0) {
      std::ostringstream os;
      os << "shard " << s.prefix << " is empty (empty bins must be "
         << "omitted from the shard table)";
      fail(Kind::kBadLayout, path, os.str());
    }
    distinct += s.distinct;
    total += s.total_instances;
  }
  if (distinct != h.distinct || total != h.total_instances) {
    std::ostringstream os;
    os << "shard table sums (" << distinct << " distinct, " << total
       << " instances) do not match the header (" << h.distinct << ", "
       << h.total_instances << ")";
    fail(Kind::kBadLayout, path, os.str());
  }
}

/// Reads and verifies the v2 shard-table payload (tiny: ≤ kMaxShards
/// rows) via `read_at(dst, bytes, offset)`.
template <typename ReadAt>
void load_shard_table(Metadata& meta, const std::string& path,
                      const ReadAt& read_at) {
  if (meta.header.format_version != kFormatVersionSharded) return;
  const SectionEntry& st =
      require_section(meta, SectionId::kShardTable, 0, path);
  check_section(st, std::uint64_t{meta.header.shard_count} * sizeof(ShardEntry),
                meta, path);
  meta.shards.resize(meta.header.shard_count);
  read_at(meta.shards.data(), static_cast<std::size_t>(st.bytes), st.offset);
  // The table is metadata in all but placement — always verify it, so a
  // load can never route queries through corrupt shard geometry.
  const std::uint64_t actual =
      fnv1a64(meta.shards.data(), static_cast<std::size_t>(st.bytes));
  if (actual != st.checksum) {
    std::ostringstream os;
    os << "checksum mismatch in section 'shard_table' (stored " << std::hex
       << st.checksum << ", computed " << actual
       << ") — the shard table is corrupt";
    fail(Kind::kChecksum, path, os.str());
  }
  validate_shard_rows(meta, path);
}

Metadata read_metadata_from_file(const std::string& path) {
  if (fault::should_fire(fault::sites::kIndexOpen)) {
    fail(Kind::kIo, path, "open failed: injected fault at index.open");
  }
  // One bounded read covers the header and the (validated-size) table —
  // sized for the larger v2 cap; v1 files are typically smaller than
  // even the v1 bound.
  const std::uint64_t head_cap =
      sizeof(IndexHeader) + kMaxSectionsV2 * sizeof(SectionEntry);
#if NGS_INDEX_POSIX
  FdGuard fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) fail_errno(path, "open");
  struct ::stat st{};
  if (::fstat(fd.fd, &st) != 0) fail_errno(path, "stat");
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  std::vector<unsigned char> head(static_cast<std::size_t>(
      std::min<std::uint64_t>(file_size, head_cap)));
  if (!head.empty()) read_exact_at(fd.fd, head.data(), head.size(), 0, path);
  Metadata meta = parse_metadata(head.data(), head.size(), file_size, path);
  load_shard_table(meta, path,
                   [&](void* dst, std::size_t bytes, std::uint64_t offset) {
                     read_exact_at(fd.fd, dst, bytes, offset, path);
                   });
  return meta;
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
  Metadata meta = parse_metadata(head.data(), head.size(), file_size, path);
  load_shard_table(meta, path,
                   [&](void* dst, std::size_t bytes, std::uint64_t offset) {
                     is.clear();
                     is.seekg(static_cast<std::streamoff>(offset));
                     is.read(static_cast<char*>(dst),
                             static_cast<std::streamsize>(bytes));
                     if (!is) fail(Kind::kIo, path, "read failed");
                   });
  return meta;
#endif
}

std::shared_ptr<Mapping> map_file(const std::string& path,
                                  std::uint64_t file_size, bool use_mmap,
                                  bool* mapped) {
  auto mapping = std::make_shared<Mapping>();
  mapping->size = static_cast<std::size_t>(file_size);
  *mapped = false;
#if NGS_INDEX_POSIX
  FdGuard fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) fail_errno(path, "open");
  // Injected mmap failure exercises the owned-buffer fallback: the load
  // must still succeed, just without zero-copy pages.
  if (fault::should_fire(fault::sites::kIndexMmap)) use_mmap = false;
  if (use_mmap && file_size > 0) {
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
  (void)use_mmap;
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

/// One spectrum of an index file: the whole payload of a version-1
/// file (described by its header), or one shard of a version-2 file
/// (described by its shard-table row). Its sections have passed
/// check_section against the described sizes.
struct Region {
  std::uint32_t prefix = 0;  // v2 shard prefix; 0 on v1
  std::uint32_t prefix_bits = 0;
  std::uint64_t distinct = 0;
  std::uint64_t total_instances = 0;
  const SectionEntry* codes = nullptr;
  const SectionEntry* counts = nullptr;
  const SectionEntry* buckets = nullptr;  // null when prefix_bits == 0
};

std::vector<Region> describe_regions(const Metadata& meta,
                                     const std::string& path) {
  const IndexHeader& h = meta.header;
  std::vector<Region> regions;
  if (h.format_version == kFormatVersionSharded) {
    for (const auto& shard : meta.shards) {
      regions.push_back({shard.prefix, shard.prefix_index_bits,
                         shard.distinct, shard.total_instances});
    }
  } else {
    regions.push_back({0, h.prefix_bits, h.distinct, h.total_instances});
  }
  for (Region& r : regions) {
    // Bound the entry count before it is multiplied into section sizes.
    if (r.distinct > meta.file_size / sizeof(seq::KmerCode)) {
      std::ostringstream os;
      os << "truncated index: " << r.distinct << " entries cannot fit in a "
         << meta.file_size << "-byte file";
      fail(Kind::kTruncated, path, os.str());
    }
    r.codes = &require_section(meta, SectionId::kCodes, r.prefix, path);
    r.counts = &require_section(meta, SectionId::kCounts, r.prefix, path);
    check_section(*r.codes, r.distinct * sizeof(seq::KmerCode), meta, path);
    check_section(*r.counts, r.distinct * sizeof(std::uint32_t), meta, path);
    if (r.prefix_bits > 0) {
      r.buckets =
          &require_section(meta, SectionId::kBucketStarts, r.prefix, path);
      check_section(*r.buckets,
                    ((std::uint64_t{1} << r.prefix_bits) + 1) *
                        sizeof(std::uint64_t),
                    meta, path);
    }
  }
  return regions;
}

/// Recomputes every section checksum over the loaded bytes.
void verify_checksums(const Metadata& meta, const Mapping& mapping,
                      const std::string& path) {
  for (const auto& entry : meta.table) {
    const std::uint64_t actual = fnv1a64(
        mapping.data + entry.offset, static_cast<std::size_t>(entry.bytes));
    if (actual != entry.checksum) {
      std::ostringstream os;
      os << "checksum mismatch in "
         << section_label(static_cast<SectionId>(entry.id),
                          entry.shard_prefix, meta)
         << " (stored " << std::hex << entry.checksum << ", computed "
         << actual << ") — the payload is corrupt; rebuild the index";
      fail(Kind::kChecksum, path, os.str());
    }
  }
}

/// A zero-copy view of one region that co-owns the mapping.
kspec::KSpectrum adopt_region(const Region& r,
                              const std::shared_ptr<const Mapping>& mapping,
                              int k) {
  const auto at = [&](const SectionEntry* section) {
    return mapping->data + section->offset;
  };
  const auto n = static_cast<std::size_t>(r.distinct);
  std::span<const std::uint64_t> buckets;
  if (r.buckets != nullptr) {
    buckets = {reinterpret_cast<const std::uint64_t*>(at(r.buckets)),
               (std::size_t{1} << r.prefix_bits) + 1};
  }
  return kspec::KSpectrum::adopt_external(
      {reinterpret_cast<const seq::KmerCode*>(at(r.codes)), n},
      {reinterpret_cast<const std::uint32_t*>(at(r.counts)), n}, buckets, k,
      r.total_instances, static_cast<int>(r.prefix_bits), mapping);
}

/// The spectrum invariants over one region's payload: sorted unique
/// in-range codes with positive counts, every code inside the shard's
/// prefix range (v2), counts summing to the declared total, and a bucket
/// table that partitions the codes.
void validate_region(const kspec::KSpectrum& view, const Region& r,
                     const Metadata& meta, const std::string& path) {
  const IndexHeader& h = meta.header;
  const int k = static_cast<int>(h.k);
  const bool sharded = h.format_version == kFormatVersionSharded;
  const std::string where =
      sharded ? " in shard " + std::to_string(r.prefix) : std::string();
  const auto invalid = [&](const std::string& detail) {
    fail(Kind::kInvalidPayload, path,
         "invalid spectrum payload" + where + ": " + detail);
  };
  const auto codes = view.codes();
  if (const auto err =
          kspec::KSpectrum::validate_sorted_counts(codes, view.counts(), k)) {
    invalid(*err);
  }
  if (sharded) {  // shards are never empty (validate_shard_rows)
    const int shift = 2 * k - static_cast<int>(h.shard_bits);
    if ((codes.front() >> shift) != r.prefix ||
        (codes.back() >> shift) != r.prefix) {
      invalid("codes fall outside the shard's prefix range");
    }
  }
  std::uint64_t total = 0;
  for (const std::uint32_t c : view.counts()) total += c;
  if (total != r.total_instances) {
    std::ostringstream os;
    os << "counts sum to " << total << " but the metadata declares "
       << r.total_instances << " total instances";
    invalid(os.str());
  }
  const auto buckets = view.bucket_starts();
  if (!buckets.empty() &&
      (buckets.front() != 0 || buckets.back() != r.distinct ||
       !std::is_sorted(buckets.begin(), buckets.end()))) {
    invalid("bucket table does not partition the code array");
  }
}

/// Fault gate + AtomicFile append, with the shared ngs::Error(kIo) the
/// file raises rewrapped as IndexError so index writers keep their
/// taxonomy (exit code 4) end to end.
void emit_through(util::AtomicFile& file, const void* data,
                  std::uint64_t bytes) {
  if (fault::should_fire(fault::sites::kIndexWrite)) {
    fail(Kind::kIo, file.temp_path(),
         "write failed: injected fault at index.write");
  }
  try {
    file.write(data, static_cast<std::size_t>(bytes));
  } catch (const ngs::Error& e) {
    throw IndexError(Kind::kIo, e.what());
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
  if (spectrum.sharded()) {
    fail(Kind::kBadLayout, path,
         "cannot serialize a sharded spectrum view monolithically — "
         "the shards live in an index file already");
  }
  const auto codes = spectrum.codes();
  const auto counts = spectrum.counts();
  const auto buckets = spectrum.bucket_starts();
  const int prefix_bits = spectrum.prefix_index_bits();

  std::vector<SectionEntry> table;
  const auto add_section = [&table](SectionId id, const void* data,
                                    std::uint64_t bytes) {
    SectionEntry entry{};
    entry.id = static_cast<std::uint32_t>(id);
    entry.bytes = bytes;
    entry.checksum = fnv1a64(data, static_cast<std::size_t>(bytes));
    table.push_back(entry);
  };
  add_section(SectionId::kCodes, codes.data(), codes.size_bytes());
  add_section(SectionId::kCounts, counts.data(), counts.size_bytes());
  if (prefix_bits > 0) {
    add_section(SectionId::kBucketStarts, buckets.data(),
                buckets.size_bytes());
  }
  std::uint64_t offset = align_up(sizeof(IndexHeader) +
                                  table.size() * sizeof(SectionEntry));
  for (auto& entry : table) {
    entry.offset = offset;
    offset = align_up(offset + entry.bytes);
  }

  IndexHeader header{};
  std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
  header.format_version = kFormatVersion;
  header.header_bytes = sizeof(IndexHeader);
  header.k = static_cast<std::uint32_t>(spectrum.k());
  header.flags = build.both_strands ? kFlagBothStrands : 0;
  header.distinct = spectrum.size();
  header.total_instances = spectrum.total_instances();
  header.prefix_bits = static_cast<std::uint32_t>(prefix_bits);
  header.section_count = static_cast<std::uint32_t>(table.size());
  header.input_reads = build.input_reads;
  header.input_bases = build.input_bases;
  header.max_read_length = build.max_read_length;
  header.endian_tag = kEndianTag;
  header.file_bytes = offset;
  header.header_checksum = meta_checksum(header, table);

  util::AtomicFile file = make_index_file(path);
  static constexpr unsigned char kZeros[kSectionAlignment] = {};
  emit_through(file, &header, sizeof(header));
  emit_through(file, table.data(), table.size() * sizeof(SectionEntry));
  const std::span<const unsigned char> payloads[] = {
      {reinterpret_cast<const unsigned char*>(codes.data()),
       codes.size_bytes()},
      {reinterpret_cast<const unsigned char*>(counts.data()),
       counts.size_bytes()},
      {reinterpret_cast<const unsigned char*>(buckets.data()),
       buckets.size_bytes()},
  };
  for (std::size_t i = 0; i < table.size(); ++i) {
    emit_through(file, kZeros, table[i].offset - file.offset());
    emit_through(file, payloads[i].data(), payloads[i].size());
  }
  emit_through(file, kZeros, header.file_bytes - file.offset());
  try {
    file.commit();
  } catch (const ngs::Error& e) {
    throw IndexError(Kind::kIo, e.what());
  }
  return header.header_checksum;
}

// --- ShardedIndexWriter ----------------------------------------------

struct ShardedIndexWriter::Impl {
  util::AtomicFile file;
  IndexBuildInfo build;
  int shard_bits = 0;
  std::size_t shard_count = 0;
  std::uint64_t metadata_region = 0;  // aligned header + table capacity
  std::vector<SectionEntry> table;
  std::vector<ShardEntry> shards;
  bool finished = false;

  explicit Impl(const std::string& path) : file(make_index_file(path)) {}
};

ShardedIndexWriter::ShardedIndexWriter(const std::string& path,
                                       const IndexBuildInfo& build,
                                       int shard_bits,
                                       std::size_t shard_count)
    : impl_(std::make_unique<Impl>(path)) {
  if (shard_count < 2 || shard_count > kMaxShards) {
    fail(Kind::kBadLayout, path,
         "sharded writer needs 2..256 shards (write a single bin as a "
         "version-1 index)");
  }
  if (shard_bits < 1 || shard_bits > 8 || shard_bits > 2 * build.k ||
      shard_count > (std::size_t{1} << shard_bits)) {
    fail(Kind::kBadLayout, path, "invalid shard split parameters");
  }
  impl_->build = build;
  impl_->shard_bits = shard_bits;
  impl_->shard_count = shard_count;
  impl_->shards.reserve(shard_count);
  impl_->table.reserve(3 * shard_count + 1);
  // Reserve the worst-case metadata region (header + three sections per
  // shard + the shard table) and fill it with zeros; finish() overwrites
  // it in place once every offset and checksum is known.
  impl_->metadata_region =
      align_up(sizeof(IndexHeader) +
               (3 * std::uint64_t{shard_count} + 1) * sizeof(SectionEntry));
  std::vector<unsigned char> zeros(
      static_cast<std::size_t>(impl_->metadata_region), 0);
  emit_through(impl_->file, zeros.data(), zeros.size());
}

ShardedIndexWriter::~ShardedIndexWriter() = default;

void ShardedIndexWriter::append_shard(std::uint32_t prefix,
                                      std::vector<seq::KmerCode> codes,
                                      std::vector<std::uint32_t> counts) {
  Impl& im = *impl_;
  const std::string& path = im.file.target_path();
  if (im.finished) fail(Kind::kBadLayout, path, "writer already finished");
  if (!im.shards.empty() && im.shards.back().prefix >= prefix) {
    fail(Kind::kBadLayout, path, "shard prefixes must be appended ascending");
  }
  if (prefix >= (std::uint64_t{1} << im.shard_bits)) {
    fail(Kind::kBadLayout, path, "shard prefix out of split range");
  }
  if (im.shards.size() >= im.shard_count) {
    fail(Kind::kBadLayout, path, "more shards appended than declared");
  }
  if (codes.empty()) {
    fail(Kind::kBadLayout, path,
         "empty shard appended (omit empty bins and lower shard_count)");
  }
  // Route through from_sorted_counts: it builds the shard's own
  // prefix-bucket table and (in debug builds) re-checks the sorted-
  // unique invariant the concatenation identity rests on.
  kspec::KSpectrum shard = kspec::KSpectrum::from_sorted_counts(
      std::move(codes), std::move(counts), im.build.k);
  const int shift = 2 * im.build.k - im.shard_bits;
  if (!shard.empty() &&
      ((shard.codes().front() >> shift) != prefix ||
       (shard.codes().back() >> shift) != prefix)) {
    fail(Kind::kBadLayout, path,
         "shard codes fall outside the declared prefix range");
  }

  const auto emit_section = [&](SectionId id, const void* data,
                                std::uint64_t bytes) {
    static constexpr unsigned char kZeros[kSectionAlignment] = {};
    const std::uint64_t offset = align_up(im.file.offset());
    emit_through(im.file, kZeros, offset - im.file.offset());
    SectionEntry entry{};
    entry.id = static_cast<std::uint32_t>(id);
    entry.shard_prefix = prefix;
    entry.offset = offset;
    entry.bytes = bytes;
    entry.checksum = fnv1a64(data, static_cast<std::size_t>(bytes));
    emit_through(im.file, data, bytes);
    im.table.push_back(entry);
  };
  emit_section(SectionId::kCodes, shard.codes().data(),
               shard.codes().size_bytes());
  emit_section(SectionId::kCounts, shard.counts().data(),
               shard.counts().size_bytes());
  if (shard.prefix_index_bits() > 0) {
    emit_section(SectionId::kBucketStarts, shard.bucket_starts().data(),
                 shard.bucket_starts().size_bytes());
  }
  ShardEntry row{};
  row.prefix = prefix;
  row.prefix_index_bits =
      static_cast<std::uint32_t>(shard.prefix_index_bits());
  row.distinct = shard.size();
  row.total_instances = shard.total_instances();
  im.shards.push_back(row);
}

std::uint64_t ShardedIndexWriter::finish() {
  Impl& im = *impl_;
  const std::string& path = im.file.target_path();
  if (im.finished) fail(Kind::kBadLayout, path, "writer already finished");
  if (im.shards.size() != im.shard_count) {
    std::ostringstream os;
    os << "finish after " << im.shards.size() << " shards, " << im.shard_count
       << " declared";
    fail(Kind::kBadLayout, path, os.str());
  }
  static constexpr unsigned char kZeros[kSectionAlignment] = {};
  {
    const std::uint64_t offset = align_up(im.file.offset());
    emit_through(im.file, kZeros, offset - im.file.offset());
    SectionEntry entry{};
    entry.id = static_cast<std::uint32_t>(SectionId::kShardTable);
    entry.offset = offset;
    entry.bytes = im.shards.size() * sizeof(ShardEntry);
    entry.checksum = fnv1a64(im.shards.data(),
                             static_cast<std::size_t>(entry.bytes));
    emit_through(im.file, im.shards.data(), entry.bytes);
    im.table.push_back(entry);
  }
  const std::uint64_t file_bytes = align_up(im.file.offset());
  emit_through(im.file, kZeros, file_bytes - im.file.offset());

  IndexHeader header{};
  std::memcpy(header.magic, kIndexMagic, sizeof(kIndexMagic));
  header.format_version = kFormatVersionSharded;
  header.header_bytes = sizeof(IndexHeader);
  header.k = static_cast<std::uint32_t>(im.build.k);
  header.flags = im.build.both_strands ? kFlagBothStrands : 0;
  for (const auto& s : im.shards) {
    header.distinct += s.distinct;
    header.total_instances += s.total_instances;
  }
  header.prefix_bits = 0;  // per-shard tables only
  header.section_count = static_cast<std::uint32_t>(im.table.size());
  header.input_reads = im.build.input_reads;
  header.input_bases = im.build.input_bases;
  header.max_read_length = im.build.max_read_length;
  header.endian_tag = kEndianTag;
  header.file_bytes = file_bytes;
  header.shard_count = static_cast<std::uint32_t>(im.shards.size());
  header.shard_bits = static_cast<std::uint32_t>(im.shard_bits);
  header.header_checksum = meta_checksum(header, im.table);

  try {
    im.file.write_at(0, &header, sizeof(header));
    im.file.write_at(sizeof(header), im.table.data(),
                     im.table.size() * sizeof(SectionEntry));
    im.file.commit();
  } catch (const IndexError&) {
    throw;
  } catch (const ngs::Error& e) {
    throw IndexError(Kind::kIo, e.what());
  }
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
  const int k = static_cast<int>(h.k);
  const bool sharded = h.format_version == kFormatVersionSharded;
  const std::vector<Region> regions = describe_regions(meta, path);

  SpectrumIndex index;
  index.path_ = path;
  index.info_ = make_info(meta);
  const std::shared_ptr<const Mapping> mapping =
      map_file(path, meta.file_size, options.use_mmap, &index.info_.mapped);
  if (options.verify_checksums) verify_checksums(meta, *mapping, path);

  // A v1 file is one region; a v2 file one view per shard prefix, the
  // empty bins left as empty spectra.
  std::vector<kspec::KSpectrum> views(sharded ? std::size_t{1} << h.shard_bits
                                              : 1);
  for (const Region& r : regions) {
    kspec::KSpectrum& view = views[r.prefix] = adopt_region(r, mapping, k);
    if (options.validate_payload) validate_region(view, r, meta, path);
  }
  index.spectrum_ = sharded ? kspec::KSpectrum::from_shards(
                                  std::move(views),
                                  static_cast<int>(h.shard_bits), k)
                            : std::move(views.front());
  return index;
}

}  // namespace ngs::index
