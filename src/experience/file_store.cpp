#include "experience/file_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "util/hash.hpp"

namespace oar::experience {

namespace {

constexpr char kMagic[] = "OAREXP1\n";     // 8 bytes, no NUL on disk
constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderLen = kMagicLen + 4 + 4;  // magic|version|reserved
constexpr std::uint32_t kFrameMagic = 0x52505845u;     // "EXPR" little-endian
constexpr std::size_t kFrameHead = 4 + 8;              // magic | payload_len
constexpr std::size_t kFrameTail = 8;                  // fnv1a64(payload)
// Frame-length ceiling mirrors the checkpoint loader's corrupt-length guard.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 33;

template <typename T>
T load_pod(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void put_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void write_all(int fd, const char* data, std::size_t n, const char* what) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("experience::FileStore: write failed (") +
                               what + "): " + std::strerror(errno));
    }
    data += w;
    n -= std::size_t(w);
  }
}

std::string header_bytes() {
  std::string h(kMagic, kMagicLen);
  put_pod(h, kVersion);
  put_pod(h, std::uint32_t{0});
  return h;
}

}  // namespace

FileStore::FileStore(std::string path, bool read_only)
    : path_(std::move(path)), read_only_(read_only) {
  std::unique_lock lock(mu_);
  open_and_map();
  stats_.recovered = stats_.records;
}

FileStore::~FileStore() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; data already put() remains readable
    // in this process and the next open recovers the flushed prefix.
  }
  std::unique_lock lock(mu_);
  unmap();
  if (fd_ >= 0) ::close(fd_);
}

void FileStore::open_and_map() {
  const int flags = read_only_ ? O_RDONLY : (O_RDWR | O_CREAT | O_APPEND);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("experience::FileStore: cannot open '" + path_ +
                             "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error("experience::FileStore: fstat failed on '" +
                             path_ + "': " + std::strerror(errno));
  }
  if (st.st_size == 0 && !read_only_) {
    const std::string h = header_bytes();
    write_all(fd_, h.data(), h.size(), "header");
    ::fdatasync(fd_);
    st.st_size = off_t(h.size());
  }

  if (st.st_size == 0) {
    // Read-only view of a not-yet-created store: empty, not an error.
    mapped_len_ = kHeaderLen;
    stats_.file_bytes = 0;
    return;
  }
  if (std::size_t(st.st_size) < kHeaderLen) {
    throw std::runtime_error("experience::FileStore: '" + path_ +
                             "' is too short to be an OAREXP1 file");
  }

  void* p = ::mmap(nullptr, std::size_t(st.st_size), PROT_READ, MAP_PRIVATE,
                   fd_, 0);
  if (p == MAP_FAILED) {
    throw std::runtime_error("experience::FileStore: mmap failed on '" +
                             path_ + "': " + std::strerror(errno));
  }
  map_ = static_cast<const char*>(p);
  map_len_ = std::uint64_t(st.st_size);
  mapped_len_ = map_len_;
  stats_.file_bytes = map_len_;

  if (std::memcmp(map_, kMagic, kMagicLen) != 0) {
    unmap();
    throw std::runtime_error("experience::FileStore: '" + path_ +
                             "' is not an OAREXP1 experience file");
  }
  const std::uint32_t version = load_pod<std::uint32_t>(map_ + kMagicLen);
  if (version != kVersion) {
    unmap();
    throw std::runtime_error("experience::FileStore: '" + path_ +
                             "' has unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t good_end = scan_region(map_, kHeaderLen, map_len_);
  if (good_end < map_len_ && !read_only_) {
    // Truncate the torn tail before appending: O_APPEND would otherwise
    // write new frames *after* the tear, where no future open could reach
    // them.  Remap so the mapping length matches the file again.
    if (::ftruncate(fd_, off_t(good_end)) != 0) {
      throw std::runtime_error("experience::FileStore: ftruncate failed on '" +
                               path_ + "': " + std::strerror(errno));
    }
    ::munmap(const_cast<char*>(map_), std::size_t(map_len_));
    map_len_ = good_end;
    mapped_len_ = good_end;
    stats_.file_bytes = good_end;
    void* remap = ::mmap(nullptr, std::size_t(map_len_), PROT_READ,
                         MAP_PRIVATE, fd_, 0);
    if (remap == MAP_FAILED) {
      map_ = nullptr;
      map_len_ = 0;
      throw std::runtime_error("experience::FileStore: remap failed on '" +
                               path_ + "': " + std::strerror(errno));
    }
    map_ = static_cast<const char*>(remap);
  }
}

void FileStore::unmap() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), std::size_t(map_len_));
    map_ = nullptr;
    map_len_ = 0;
  }
}

std::uint64_t FileStore::scan_region(const char* data, std::uint64_t begin,
                                     std::uint64_t end) {
  std::uint64_t off = begin;
  while (off + kFrameHead + kFrameTail <= end) {
    if (load_pod<std::uint32_t>(data + off) != kFrameMagic) break;
    const std::uint64_t len = load_pod<std::uint64_t>(data + off + 4);
    if (len > kMaxPayloadBytes ||
        len > end - off - kFrameHead - kFrameTail) {
      break;
    }
    const char* payload = data + off + kFrameHead;
    const std::uint64_t sum =
        load_pod<std::uint64_t>(payload + len);
    if (util::fnv1a64(payload, std::size_t(len)) != sum) break;

    const Loc loc{off + kFrameHead, len};
    CanonicalKey key;
    ExperienceRecord rec;
    if (!parse_at(loc, &key, &rec)) break;  // fail-closed on record bytes
    index_payload(loc);
    off += kFrameHead + len + kFrameTail;
  }
  // Anything between the first bad frame and EOF is a torn tail (or
  // corruption): recovered records end here, the rest is dropped.
  stats_.tail_lost_bytes += end - off;
  return off;
}

const char* FileStore::at(std::uint64_t offset) const {
  if (offset < mapped_len_) return map_ + offset;
  return overlay_.data() + (offset - mapped_len_);
}

bool FileStore::parse_at(const Loc& loc, CanonicalKey* key,
                         ExperienceRecord* rec) const {
  const char* p = at(loc.offset);
  if (loc.len < 4) return false;
  const std::uint32_t key_len = load_pod<std::uint32_t>(p);
  if (key_len == 0 || std::uint64_t(key_len) + 4 > loc.len) return false;
  if (key != nullptr) {
    *key = CanonicalKey::from_bytes(std::string(p + 4, key_len));
  }
  if (rec != nullptr) {
    if (!deserialize_record(p + 4 + key_len,
                            std::size_t(loc.len - 4 - key_len), *rec)) {
      return false;
    }
  }
  return true;
}

void FileStore::index_payload(const Loc& loc) {
  CanonicalKey key;
  ExperienceRecord rec;
  if (!parse_at(loc, &key, &rec)) return;
  auto [it, inserted] = index_.try_emplace(key, loc);
  if (!inserted) {
    stats_.dead_bytes += it->second.len + kFrameHead + kFrameTail;
    it->second = loc;
  } else {
    ++stats_.records;
  }
  if (rec.has_warm_start()) {
    base_index_[util::fnv1a64(rec.base_key)].push_back(loc);
  }
}

bool FileStore::get(const CanonicalKey& key, ExperienceRecord& out) const {
  std::shared_lock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  return parse_at(it->second, nullptr, &out);
}

std::vector<ExperienceRecord> FileStore::match_base(std::string_view base_key,
                                                    std::size_t limit) const {
  std::vector<ExperienceRecord> out;
  if (limit == 0) return out;
  std::shared_lock lock(mu_);
  const auto it = base_index_.find(util::fnv1a64(base_key));
  if (it == base_index_.end()) return out;
  // Newest last in the index; return newest first.
  for (auto loc = it->second.rbegin();
       loc != it->second.rend() && out.size() < limit; ++loc) {
    ExperienceRecord rec;
    if (parse_at(*loc, nullptr, &rec) && rec.base_key == base_key) {
      out.push_back(std::move(rec));
    }
  }
  return out;
}

std::size_t FileStore::put(const CanonicalKey& key, const ExperienceRecord& rec) {
  if (read_only_ || key.empty()) return 0;
  std::string payload;
  payload.reserve(4 + key.bytes().size() + 256);
  put_pod(payload, std::uint32_t(key.bytes().size()));
  payload.append(key.bytes());
  const std::size_t key_bytes = payload.size();
  payload.append(serialize_record(rec));

  std::unique_lock lock(mu_);
  const std::uint64_t offset =
      mapped_len_ + overlay_.size() + kFrameHead;
  put_pod(overlay_, kFrameMagic);
  put_pod(overlay_, std::uint64_t(payload.size()));
  overlay_.append(payload);
  put_pod(overlay_, util::fnv1a64(payload));
  index_payload(Loc{offset, payload.size()});
  ++stats_.appended;
  stats_.pending_bytes = overlay_.size() - flushed_overlay_;
  return payload.size() - key_bytes;
}

void FileStore::flush() {
  std::unique_lock lock(mu_);
  if (read_only_ || fd_ < 0) return;
  const std::size_t n = overlay_.size() - flushed_overlay_;
  if (n == 0) return;
  write_all(fd_, overlay_.data() + flushed_overlay_, n, "frames");
  ::fdatasync(fd_);
  flushed_overlay_ = overlay_.size();
  stats_.file_bytes += n;
  stats_.pending_bytes = 0;
  ++stats_.flushes;
}

void FileStore::compact() {
  flush();
  std::unique_lock lock(mu_);
  if (read_only_ || fd_ < 0) return;

  // Live frames ordered by file position, so compaction is deterministic
  // and preserves relative age (base_index recency survives the rewrite).
  std::vector<Loc> live;
  live.reserve(index_.size());
  for (const auto& [key, loc] : index_) live.push_back(loc);
  std::sort(live.begin(), live.end(),
            [](const Loc& a, const Loc& b) { return a.offset < b.offset; });

  const std::string tmp_path = path_ + ".tmp";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) {
    throw std::runtime_error("experience::FileStore: cannot create '" +
                             tmp_path + "': " + std::strerror(errno));
  }
  try {
    const std::string h = header_bytes();
    write_all(tmp_fd, h.data(), h.size(), "compact header");
    for (const Loc& loc : live) {
      // Copy the whole frame verbatim; the checksum is content-addressed,
      // so it stays valid at its new offset.
      write_all(tmp_fd, at(loc.offset - kFrameHead),
                std::size_t(kFrameHead + loc.len + kFrameTail),
                "compact frame");
    }
    ::fdatasync(tmp_fd);
  } catch (...) {
    ::close(tmp_fd);
    std::remove(tmp_path.c_str());
    throw;
  }
  ::close(tmp_fd);
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("experience::FileStore: rename '" + tmp_path +
                             "' -> '" + path_ + "' failed: " +
                             std::strerror(errno));
  }

  // Remap and reindex against the rewritten file.
  unmap();
  ::close(fd_);
  fd_ = -1;
  overlay_.clear();
  flushed_overlay_ = 0;
  index_.clear();
  base_index_.clear();
  const FileStoreStats kept = stats_;
  stats_ = FileStoreStats{};
  open_and_map();
  stats_.recovered = kept.recovered;
  stats_.appended = kept.appended;
  stats_.flushes = kept.flushes;
  stats_.compactions = kept.compactions + 1;
  stats_.tail_lost_bytes = kept.tail_lost_bytes;
}

std::size_t FileStore::size() const {
  std::shared_lock lock(mu_);
  return index_.size();
}

FileStoreStats FileStore::stats() const {
  std::shared_lock lock(mu_);
  return stats_;
}

}  // namespace oar::experience
