// FAT-style embedded file system (§7).
//
// "These file systems must still incorporate the major characteristics of
// modern file systems: large file sizes, non-sequential allocation of
// blocks, etc." The volume keeps a file allocation table (one 32-bit
// entry per block: free / next-in-chain / end-of-chain), hierarchical
// directories stored as ordinary block chains of fixed-size entries, and
// a rotating next-fit allocator — which is what produces the natural
// fragmentation the E-FS experiment measures.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fs/block_device.h"

namespace mmsoc::fs {

inline constexpr std::uint32_t kFatFree = 0;
inline constexpr std::uint32_t kFatEnd = 0xFFFFFFFFu;
inline constexpr std::size_t kMaxNameLength = 47;
/// Smallest block size FatVolume::format accepts.
inline constexpr std::uint32_t kMinBlockSize = 128;

/// A directory listing entry.
struct DirEntry {
  std::string name;
  bool is_directory = false;
  std::uint64_t size = 0;
};

/// Mounted FAT volume over a caller-owned block device.
class FatVolume {
 public:
  /// Initialize an empty filesystem on the device and mount it.
  static common::Result<FatVolume> format(BlockDevice& device);

  /// Mount an already-formatted device.
  static common::Result<FatVolume> mount(BlockDevice& device);

  // --- namespace operations --------------------------------------------
  common::Status mkdir(std::string_view path);
  common::Status remove(std::string_view path);  ///< file or empty dir
  [[nodiscard]] common::Result<DirEntry> stat(std::string_view path);
  [[nodiscard]] common::Result<std::vector<DirEntry>> list(std::string_view path);

  // --- file I/O ----------------------------------------------------------
  /// Create or truncate a file with the given contents.
  common::Status write_file(std::string_view path,
                            std::span<const std::uint8_t> data);
  /// Append to an existing file (creates it if absent).
  common::Status append_file(std::string_view path,
                             std::span<const std::uint8_t> data);
  [[nodiscard]] common::Result<std::vector<std::uint8_t>> read_file(
      std::string_view path);
  /// Ranged read: `length` bytes starting at byte `offset`, touching only
  /// the blocks that cover the range (a streaming reader pays seeks for
  /// the blocks it needs, not the whole chain). Reads past EOF are
  /// clipped; an offset at/after EOF yields an empty vector.
  [[nodiscard]] common::Result<std::vector<std::uint8_t>> read_file_range(
      std::string_view path, std::uint64_t offset, std::uint64_t length);

  // --- introspection -----------------------------------------------------
  [[nodiscard]] std::uint32_t free_blocks() const noexcept;
  [[nodiscard]] std::uint32_t total_data_blocks() const noexcept;

  /// Discontiguity of a file's chain: fraction of block transitions that
  /// are non-adjacent, in [0, 1]. 0 = perfectly sequential.
  [[nodiscard]] common::Result<double> fragmentation(std::string_view path);

  [[nodiscard]] BlockDevice& device() noexcept { return *device_; }

 private:
  explicit FatVolume(BlockDevice& device) : device_(&device) {}

  BlockDevice* device_;
  std::uint32_t fat_start_ = 1;       // superblock occupies block 0
  std::uint32_t fat_blocks_ = 0;
  std::uint32_t data_start_ = 0;
  std::uint32_t root_block_ = 0;
  std::vector<std::uint32_t> fat_;    // in-memory FAT, flushed on mutation
  std::uint32_t alloc_cursor_ = 0;    // rotating next-fit cursor

  // On-disk directory entry layout (64 bytes).
  struct RawEntry;

  common::Status flush_fat();
  common::Status load_fat();
  [[nodiscard]] common::Result<std::uint32_t> allocate_block();
  void free_chain(std::uint32_t first);
  [[nodiscard]] std::vector<std::uint32_t> chain_blocks(std::uint32_t first) const;

  struct Located {
    std::uint32_t dir_block;   // directory chain holding the entry
    std::uint32_t entry_index; // index within the whole directory
    DirEntry info;
    std::uint32_t first_block;
  };
  common::Result<Located> locate(std::string_view path);
  common::Result<std::uint32_t> dir_chain_of(std::string_view dir_path);
  common::Status add_entry(std::uint32_t dir_first, const DirEntry& e,
                           std::uint32_t first_block);
  common::Status update_entry(const Located& loc, std::uint64_t new_size,
                              std::uint32_t new_first);
  common::Status erase_entry(const Located& loc);
};

/// Split "/a/b/c" into {"a","b","c"}; rejects empty components.
[[nodiscard]] common::Result<std::vector<std::string>> split_path(
    std::string_view path);

}  // namespace mmsoc::fs
