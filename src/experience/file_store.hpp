#pragma once

// Append-only, checksummed, mmap-able experience file — the disk tier of
// experience::Store.
//
// File layout (all integers little-endian):
//
//   header  := "OAREXP1\n" | u32 version | u32 reserved(0)
//   frame   := u32 frame_magic ("EXPR") | u64 payload_len
//            | payload | u64 fnv1a64(payload)
//   payload := u32 key_len | key bytes | record bytes (record.hpp)
//
// Crash-safety contract (the OARCK1 discipline applied to a log):
//
//  * Appends go through a single buffered writer; flush() writes whole
//    frames and fdatasyncs, so a kill can only ever tear the *last* frame.
//  * open() scans frames left to right and stops at the first one whose
//    magic, length, checksum, or record parse fails; everything before the
//    tear is recovered, the torn tail is ignored and reported
//    (tail_lost_bytes) — fail-closed per record, never a crash, never a
//    partially-applied record.
//  * compact() rewrites live records to `path.tmp`, fsyncs, and renames
//    over the original — the same atomic-replace move the checkpoint
//    writer uses — then remaps.  Duplicate keys (append-merge updates)
//    are dropped in favor of the newest frame.
//
// Concurrency: any number of readers concurrent with one logical writer,
// guarded by an internal shared_mutex.  Readers resolve against the mmap'd
// region plus an in-memory overlay of post-open appends, so get() never
// touches the filesystem.

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "experience/key.hpp"
#include "experience/record.hpp"

namespace oar::experience {

struct FileStoreStats {
  std::uint64_t records = 0;          ///< live (indexed) records
  std::uint64_t recovered = 0;        ///< records recovered at open
  std::uint64_t appended = 0;         ///< records appended since open
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t tail_lost_bytes = 0;  ///< torn/corrupt bytes dropped at open
  std::uint64_t dead_bytes = 0;       ///< superseded duplicate frames
  std::uint64_t file_bytes = 0;       ///< current on-disk size
  std::uint64_t pending_bytes = 0;    ///< buffered, not yet flushed
};

class FileStore {
 public:
  /// Opens (creating when absent, unless read_only) and indexes `path`.
  /// Throws std::runtime_error when the header is not an OAREXP1 file of a
  /// readable version — a wrong-format file is never silently clobbered —
  /// or when the file cannot be opened/created at all.  A torn *tail* is
  /// not an error (see file comment).
  explicit FileStore(std::string path, bool read_only = false);
  ~FileStore();

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  /// Exact lookup.  Deserializes on demand; false on miss.
  bool get(const CanonicalKey& key, ExperienceRecord& out) const;

  /// All live records whose warm-start base key equals `base_key`, up to
  /// `limit` (newest first).
  std::vector<ExperienceRecord> match_base(std::string_view base_key,
                                           std::size_t limit) const;

  /// Buffers an append (or append-merge update) of `rec` under `key`.
  /// Visible to get()/match_base() immediately; durable after flush().
  /// Returns the size of `rec`'s serialized bytes in the frame (0 when
  /// nothing is appended: read-only store or empty key).
  std::size_t put(const CanonicalKey& key, const ExperienceRecord& rec);

  /// Writes buffered frames to disk and fdatasyncs.  No-op when clean.
  void flush();

  /// Rewrites live records via tmp+rename, dropping dead frames, then
  /// remaps.  Implies flush().
  void compact();

  std::size_t size() const;
  bool read_only() const { return read_only_; }
  const std::string& path() const { return path_; }
  FileStoreStats stats() const;

 private:
  struct Loc {
    std::uint64_t offset = 0;  ///< payload offset in the logical byte space
    std::uint64_t len = 0;     ///< payload length
  };

  /// Resolves a logical offset to memory: [0, mapped_len_) lives in the
  /// mmap, [mapped_len_, ...) in the append overlay.
  const char* at(std::uint64_t offset) const;
  bool parse_at(const Loc& loc, CanonicalKey* key, ExperienceRecord* rec) const;
  void index_payload(const Loc& loc);
  /// Indexes frames in [begin, end); returns the offset one past the last
  /// valid frame (== end when the region is clean).
  std::uint64_t scan_region(const char* data, std::uint64_t begin,
                            std::uint64_t end);
  void open_and_map();
  void unmap();
  void append_frames_locked(const std::string& bytes);

  const std::string path_;
  const bool read_only_;

  mutable std::shared_mutex mu_;
  int fd_ = -1;                   // append fd (writable stores only)
  const char* map_ = nullptr;     // mmap of the file as of open()
  std::uint64_t map_len_ = 0;     // bytes mmap'd (includes header)
  std::uint64_t mapped_len_ = 0;  // == map_len_; logical offsets below this
                                  // resolve into the map
  std::string overlay_;           // frames appended after open
  std::uint64_t flushed_overlay_ = 0;  // prefix of overlay_ already on disk

  std::unordered_map<CanonicalKey, Loc, KeyHash> index_;
  /// base-key digest -> payload locations, newest last.  Digest collisions
  /// are resolved by re-checking the parsed record's base_key.
  std::unordered_map<std::uint64_t, std::vector<Loc>> base_index_;

  FileStoreStats stats_{};
};

}  // namespace oar::experience
