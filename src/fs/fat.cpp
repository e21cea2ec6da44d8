#include "fs/fat.h"

#include <algorithm>
#include <cstring>

namespace mmsoc::fs {

using common::Result;
using common::Status;
using common::StatusCode;

namespace {

constexpr std::uint32_t kMagic = 0x4D4D4653u;  // "MMFS"
constexpr std::size_t kEntrySize = 64;

}  // namespace

// On-disk entry: [used:1][dir:1][reserved:6] name[48] size:u64 first:u32 pad
struct FatVolume::RawEntry {
  std::uint8_t used = 0;
  std::uint8_t is_dir = 0;
  char name[kMaxNameLength + 1] = {};
  std::uint64_t size = 0;
  std::uint32_t first_block = kFatEnd;

  void to_bytes(std::uint8_t* out) const {
    std::memset(out, 0, kEntrySize);
    out[0] = used;
    out[1] = is_dir;
    std::memcpy(out + 2, name, kMaxNameLength + 1);
    std::memcpy(out + 50, &size, 8);
    std::memcpy(out + 58, &first_block, 4);
  }
  static RawEntry from_bytes(const std::uint8_t* in) {
    RawEntry e;
    e.used = in[0];
    e.is_dir = in[1];
    std::memcpy(e.name, in + 2, kMaxNameLength + 1);
    e.name[kMaxNameLength] = '\0';
    std::memcpy(&e.size, in + 50, 8);
    std::memcpy(&e.first_block, in + 58, 4);
    return e;
  }
};

Result<std::vector<std::string>> split_path(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Result<std::vector<std::string>>(StatusCode::kInvalidArgument,
                                            "path must be absolute");
  }
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    const auto next = path.find('/', i);
    const auto end = next == std::string_view::npos ? path.size() : next;
    if (end == i) {
      return Result<std::vector<std::string>>(StatusCode::kInvalidArgument,
                                              "empty path component");
    }
    const auto comp = path.substr(i, end - i);
    if (comp.size() > kMaxNameLength) {
      return Result<std::vector<std::string>>(StatusCode::kInvalidArgument,
                                              "name too long");
    }
    parts.emplace_back(comp);
    i = end + 1;
  }
  return parts;
}

Result<FatVolume> FatVolume::format(BlockDevice& device) {
  const std::uint32_t bs = device.block_size();
  if (bs < kMinBlockSize || device.block_count() < 8) {
    return Result<FatVolume>(StatusCode::kInvalidArgument,
                             "device too small to format");
  }
  FatVolume v(device);
  const std::uint32_t entries_per_block = bs / 4;
  v.fat_blocks_ =
      (device.block_count() + entries_per_block - 1) / entries_per_block;
  v.data_start_ = 1 + v.fat_blocks_;
  if (v.data_start_ + 1 >= device.block_count()) {
    return Result<FatVolume>(StatusCode::kInvalidArgument,
                             "no data blocks after metadata");
  }
  v.fat_.assign(device.block_count(), kFatFree);
  // Metadata blocks are marked in-use so the allocator never hands them out.
  for (std::uint32_t b = 0; b < v.data_start_; ++b) v.fat_[b] = kFatEnd;
  // Root directory: one empty block.
  v.root_block_ = v.data_start_;
  v.fat_[v.root_block_] = kFatEnd;
  v.alloc_cursor_ = v.root_block_ + 1;

  // Superblock.
  std::vector<std::uint8_t> sb(bs, 0);
  std::memcpy(sb.data(), &kMagic, 4);
  std::memcpy(sb.data() + 4, &v.fat_blocks_, 4);
  std::memcpy(sb.data() + 8, &v.root_block_, 4);
  if (auto st = device.write(0, sb); !st.is_ok()) {
    return Result<FatVolume>(std::move(st));
  }
  // Zero the root directory block.
  std::vector<std::uint8_t> zero(bs, 0);
  if (auto st = device.write(v.root_block_, zero); !st.is_ok()) {
    return Result<FatVolume>(std::move(st));
  }
  if (auto st = v.flush_fat(); !st.is_ok()) {
    return Result<FatVolume>(std::move(st));
  }
  return v;
}

Result<FatVolume> FatVolume::mount(BlockDevice& device) {
  const std::uint32_t bs = device.block_size();
  std::vector<std::uint8_t> sb(bs);
  if (auto st = device.read(0, sb); !st.is_ok()) {
    return Result<FatVolume>(std::move(st));
  }
  std::uint32_t magic = 0;
  FatVolume v(device);
  std::memcpy(&magic, sb.data(), 4);
  if (magic != kMagic) {
    return Result<FatVolume>(StatusCode::kCorruptData, "bad superblock magic");
  }
  std::memcpy(&v.fat_blocks_, sb.data() + 4, 4);
  std::memcpy(&v.root_block_, sb.data() + 8, 4);
  v.data_start_ = 1 + v.fat_blocks_;
  if (auto st = v.load_fat(); !st.is_ok()) {
    return Result<FatVolume>(std::move(st));
  }
  v.alloc_cursor_ = v.root_block_ + 1;
  return v;
}

Status FatVolume::flush_fat() {
  const std::uint32_t bs = device_->block_size();
  const std::uint32_t per_block = bs / 4;
  std::vector<std::uint8_t> buf(bs, 0);
  for (std::uint32_t fb = 0; fb < fat_blocks_; ++fb) {
    std::fill(buf.begin(), buf.end(), 0);
    for (std::uint32_t i = 0; i < per_block; ++i) {
      const std::uint64_t idx = static_cast<std::uint64_t>(fb) * per_block + i;
      if (idx < fat_.size()) {
        std::memcpy(buf.data() + i * 4, &fat_[static_cast<std::size_t>(idx)], 4);
      }
    }
    if (auto st = device_->write(fat_start_ + fb, buf); !st.is_ok()) return st;
  }
  return Status::ok();
}

Status FatVolume::load_fat() {
  const std::uint32_t bs = device_->block_size();
  const std::uint32_t per_block = bs / 4;
  fat_.assign(device_->block_count(), kFatFree);
  std::vector<std::uint8_t> buf(bs);
  for (std::uint32_t fb = 0; fb < fat_blocks_; ++fb) {
    if (auto st = device_->read(fat_start_ + fb, buf); !st.is_ok()) return st;
    for (std::uint32_t i = 0; i < per_block; ++i) {
      const std::uint64_t idx = static_cast<std::uint64_t>(fb) * per_block + i;
      if (idx < fat_.size()) {
        std::memcpy(&fat_[static_cast<std::size_t>(idx)], buf.data() + i * 4, 4);
      }
    }
  }
  return Status::ok();
}

Result<std::uint32_t> FatVolume::allocate_block() {
  // Next-fit from a rotating cursor: the classic embedded-FAT policy that
  // trades allocation speed for long-term fragmentation.
  const std::uint32_t n = device_->block_count();
  for (std::uint32_t scanned = 0; scanned < n; ++scanned) {
    std::uint32_t b = alloc_cursor_ + scanned;
    if (b >= n) b = data_start_ + (b - n) % std::max(1u, n - data_start_);
    if (b < data_start_) continue;
    if (fat_[b] == kFatFree) {
      alloc_cursor_ = b + 1 >= n ? data_start_ : b + 1;
      fat_[b] = kFatEnd;
      return b;
    }
  }
  return Result<std::uint32_t>(StatusCode::kResourceExhausted, "volume full");
}

void FatVolume::free_chain(std::uint32_t first) {
  std::uint32_t b = first;
  while (b != kFatEnd && b != kFatFree && b < fat_.size()) {
    const std::uint32_t next = fat_[b];
    fat_[b] = kFatFree;
    b = next;
  }
}

std::vector<std::uint32_t> FatVolume::chain_blocks(std::uint32_t first) const {
  std::vector<std::uint32_t> blocks;
  std::uint32_t b = first;
  while (b != kFatEnd && b != kFatFree && b < fat_.size()) {
    blocks.push_back(b);
    if (blocks.size() > fat_.size()) break;  // cycle guard
    b = fat_[b];
  }
  return blocks;
}

Result<std::uint32_t> FatVolume::dir_chain_of(std::string_view dir_path) {
  auto parts = split_path(dir_path);
  if (!parts.is_ok()) return Result<std::uint32_t>(parts.status());
  std::uint32_t dir = root_block_;
  const std::uint32_t bs = device_->block_size();
  std::vector<std::uint8_t> buf(bs);
  for (const auto& comp : parts.value()) {
    bool found = false;
    for (const auto block : chain_blocks(dir)) {
      if (auto st = device_->read(block, buf); !st.is_ok()) {
        return Result<std::uint32_t>(std::move(st));
      }
      for (std::uint32_t off = 0; off + kEntrySize <= bs; off += kEntrySize) {
        const auto e = RawEntry::from_bytes(buf.data() + off);
        if (e.used && e.is_dir && comp == e.name) {
          dir = e.first_block;
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) {
      return Result<std::uint32_t>(StatusCode::kNotFound,
                                   "directory not found: " + comp);
    }
  }
  return dir;
}

Result<FatVolume::Located> FatVolume::locate(std::string_view path) {
  auto parts = split_path(path);
  if (!parts.is_ok()) return Result<Located>(parts.status());
  if (parts.value().empty()) {
    return Result<Located>(StatusCode::kInvalidArgument, "root has no entry");
  }
  const auto& name = parts.value().back();
  // Parent directory chain.
  std::string parent = "/";
  for (std::size_t i = 0; i + 1 < parts.value().size(); ++i) {
    parent += parts.value()[i];
    if (i + 2 < parts.value().size()) parent += "/";
  }
  auto dir = dir_chain_of(parent);
  if (!dir.is_ok()) return Result<Located>(dir.status());

  const std::uint32_t bs = device_->block_size();
  const std::uint32_t entries_per_block = bs / kEntrySize;
  std::vector<std::uint8_t> buf(bs);
  std::uint32_t index = 0;
  for (const auto block : chain_blocks(dir.value())) {
    if (auto st = device_->read(block, buf); !st.is_ok()) {
      return Result<Located>(std::move(st));
    }
    for (std::uint32_t i = 0; i < entries_per_block; ++i, ++index) {
      const auto e = RawEntry::from_bytes(buf.data() + i * kEntrySize);
      if (e.used && name == e.name) {
        Located loc;
        loc.dir_block = dir.value();
        loc.entry_index = index;
        loc.info.name = e.name;
        loc.info.is_directory = e.is_dir != 0;
        loc.info.size = e.size;
        loc.first_block = e.first_block;
        return loc;
      }
    }
  }
  return Result<Located>(StatusCode::kNotFound, std::string("not found: ") + std::string(path));
}

Status FatVolume::add_entry(std::uint32_t dir_first, const DirEntry& e,
                            std::uint32_t first_block) {
  const std::uint32_t bs = device_->block_size();
  const std::uint32_t entries_per_block = bs / kEntrySize;
  std::vector<std::uint8_t> buf(bs);

  RawEntry raw;
  raw.used = 1;
  raw.is_dir = e.is_directory ? 1 : 0;
  std::snprintf(raw.name, sizeof raw.name, "%s", e.name.c_str());
  raw.size = e.size;
  raw.first_block = first_block;

  auto blocks = chain_blocks(dir_first);
  for (const auto block : blocks) {
    if (auto st = device_->read(block, buf); !st.is_ok()) return st;
    for (std::uint32_t i = 0; i < entries_per_block; ++i) {
      const auto existing = RawEntry::from_bytes(buf.data() + i * kEntrySize);
      if (!existing.used) {
        raw.to_bytes(buf.data() + i * kEntrySize);
        return device_->write(block, buf);
      }
    }
  }
  // Directory full: grow the chain by one block.
  auto nb = allocate_block();
  if (!nb.is_ok()) return nb.status();
  fat_[blocks.back()] = nb.value();
  if (auto st = flush_fat(); !st.is_ok()) return st;
  std::fill(buf.begin(), buf.end(), 0);
  raw.to_bytes(buf.data());
  return device_->write(nb.value(), buf);
}

Status FatVolume::update_entry(const Located& loc, std::uint64_t new_size,
                               std::uint32_t new_first) {
  const std::uint32_t bs = device_->block_size();
  const std::uint32_t entries_per_block = bs / kEntrySize;
  const auto blocks = chain_blocks(loc.dir_block);
  const std::uint32_t block = blocks[loc.entry_index / entries_per_block];
  const std::uint32_t slot = loc.entry_index % entries_per_block;
  std::vector<std::uint8_t> buf(bs);
  if (auto st = device_->read(block, buf); !st.is_ok()) return st;
  auto raw = RawEntry::from_bytes(buf.data() + slot * kEntrySize);
  raw.size = new_size;
  raw.first_block = new_first;
  raw.to_bytes(buf.data() + slot * kEntrySize);
  return device_->write(block, buf);
}

Status FatVolume::erase_entry(const Located& loc) {
  const std::uint32_t bs = device_->block_size();
  const std::uint32_t entries_per_block = bs / kEntrySize;
  const auto blocks = chain_blocks(loc.dir_block);
  const std::uint32_t block = blocks[loc.entry_index / entries_per_block];
  const std::uint32_t slot = loc.entry_index % entries_per_block;
  std::vector<std::uint8_t> buf(bs);
  if (auto st = device_->read(block, buf); !st.is_ok()) return st;
  std::memset(buf.data() + slot * kEntrySize, 0, kEntrySize);
  return device_->write(block, buf);
}

Status FatVolume::mkdir(std::string_view path) {
  auto parts = split_path(path);
  if (!parts.is_ok()) return parts.status();
  if (parts.value().empty()) {
    return Status(StatusCode::kAlreadyExists, "root exists");
  }
  if (locate(path).is_ok()) {
    return Status(StatusCode::kAlreadyExists, std::string(path));
  }
  std::string parent = "/";
  for (std::size_t i = 0; i + 1 < parts.value().size(); ++i) {
    parent += parts.value()[i];
    if (i + 2 < parts.value().size()) parent += "/";
  }
  auto dir = dir_chain_of(parent);
  if (!dir.is_ok()) return dir.status();

  auto block = allocate_block();
  if (!block.is_ok()) return block.status();
  std::vector<std::uint8_t> zero(device_->block_size(), 0);
  if (auto st = device_->write(block.value(), zero); !st.is_ok()) return st;
  DirEntry e;
  e.name = parts.value().back();
  e.is_directory = true;
  if (auto st = add_entry(dir.value(), e, block.value()); !st.is_ok()) return st;
  return flush_fat();
}

Status FatVolume::write_file(std::string_view path,
                             std::span<const std::uint8_t> data) {
  // Truncate existing file if present.
  if (auto existing = locate(path); existing.is_ok()) {
    if (existing.value().info.is_directory) {
      return Status(StatusCode::kInvalidArgument, "is a directory");
    }
    free_chain(existing.value().first_block);
    if (auto st = erase_entry(existing.value()); !st.is_ok()) return st;
  }
  auto parts = split_path(path);
  if (!parts.is_ok()) return parts.status();
  if (parts.value().empty()) {
    return Status(StatusCode::kInvalidArgument, "cannot write to root");
  }
  std::string parent = "/";
  for (std::size_t i = 0; i + 1 < parts.value().size(); ++i) {
    parent += parts.value()[i];
    if (i + 2 < parts.value().size()) parent += "/";
  }
  auto dir = dir_chain_of(parent);
  if (!dir.is_ok()) return dir.status();

  // Allocate and fill the chain.
  const std::uint32_t bs = device_->block_size();
  std::uint32_t first = kFatEnd;
  std::uint32_t prev = kFatEnd;
  std::vector<std::uint8_t> buf(bs, 0);
  std::size_t off = 0;
  while (off < data.size() || first == kFatEnd) {
    auto nb = allocate_block();
    if (!nb.is_ok()) {
      if (first != kFatEnd) free_chain(first);
      (void)flush_fat();
      return nb.status();
    }
    if (first == kFatEnd) {
      first = nb.value();
    } else {
      fat_[prev] = nb.value();
    }
    prev = nb.value();
    std::fill(buf.begin(), buf.end(), 0);
    const std::size_t n = std::min<std::size_t>(bs, data.size() - off);
    if (n > 0) std::copy(data.begin() + static_cast<std::ptrdiff_t>(off),
                         data.begin() + static_cast<std::ptrdiff_t>(off + n), buf.begin());
    if (auto st = device_->write(nb.value(), buf); !st.is_ok()) return st;
    off += n;
    if (data.empty()) break;  // zero-length file: one block chain
  }

  DirEntry e;
  e.name = parts.value().back();
  e.is_directory = false;
  e.size = data.size();
  if (auto st = add_entry(dir.value(), e, first); !st.is_ok()) return st;
  return flush_fat();
}

Status FatVolume::append_file(std::string_view path,
                              std::span<const std::uint8_t> data) {
  auto existing = locate(path);
  if (!existing.is_ok()) {
    return write_file(path, data);
  }
  if (existing.value().info.is_directory) {
    return Status(StatusCode::kInvalidArgument, "is a directory");
  }
  const std::uint32_t bs = device_->block_size();
  const auto blocks = chain_blocks(existing.value().first_block);
  const std::uint64_t old_size = existing.value().info.size;
  std::vector<std::uint8_t> buf(bs);

  std::size_t consumed = 0;
  // Fill the partial tail block first.
  const std::uint32_t tail_used = static_cast<std::uint32_t>(old_size % bs);
  std::uint32_t prev = blocks.back();
  if (tail_used != 0 || (old_size > 0 && tail_used == 0 && false)) {
    if (auto st = device_->read(prev, buf); !st.is_ok()) return st;
    const std::size_t n =
        std::min<std::size_t>(bs - tail_used, data.size());
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n),
              buf.begin() + tail_used);
    if (auto st = device_->write(prev, buf); !st.is_ok()) return st;
    consumed = n;
  }
  while (consumed < data.size()) {
    auto nb = allocate_block();
    if (!nb.is_ok()) return nb.status();
    fat_[prev] = nb.value();
    prev = nb.value();
    std::fill(buf.begin(), buf.end(), 0);
    const std::size_t n = std::min<std::size_t>(bs, data.size() - consumed);
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
              data.begin() + static_cast<std::ptrdiff_t>(consumed + n), buf.begin());
    if (auto st = device_->write(prev, buf); !st.is_ok()) return st;
    consumed += n;
  }
  if (auto st = update_entry(existing.value(), old_size + data.size(),
                             existing.value().first_block);
      !st.is_ok()) {
    return st;
  }
  return flush_fat();
}

Result<std::vector<std::uint8_t>> FatVolume::read_file(std::string_view path) {
  auto loc = locate(path);
  if (!loc.is_ok()) return Result<std::vector<std::uint8_t>>(loc.status());
  if (loc.value().info.is_directory) {
    return Result<std::vector<std::uint8_t>>(StatusCode::kInvalidArgument,
                                             "is a directory");
  }
  const std::uint32_t bs = device_->block_size();
  std::vector<std::uint8_t> out;
  out.reserve(loc.value().info.size);
  std::vector<std::uint8_t> buf(bs);
  std::uint64_t remaining = loc.value().info.size;
  for (const auto block : chain_blocks(loc.value().first_block)) {
    if (remaining == 0) break;
    if (auto st = device_->read(block, buf); !st.is_ok()) {
      return Result<std::vector<std::uint8_t>>(std::move(st));
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(bs, remaining));
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
    remaining -= n;
  }
  if (remaining != 0) {
    return Result<std::vector<std::uint8_t>>(StatusCode::kCorruptData,
                                             "chain shorter than size");
  }
  return out;
}

Result<std::vector<std::uint8_t>> FatVolume::read_file_range(
    std::string_view path, std::uint64_t offset, std::uint64_t length) {
  auto loc = locate(path);
  if (!loc.is_ok()) return Result<std::vector<std::uint8_t>>(loc.status());
  if (loc.value().info.is_directory) {
    return Result<std::vector<std::uint8_t>>(StatusCode::kInvalidArgument,
                                             "is a directory");
  }
  const std::uint64_t size = loc.value().info.size;
  if (offset >= size || length == 0) return std::vector<std::uint8_t>{};
  const std::uint64_t end = std::min<std::uint64_t>(size, offset + length);
  const std::uint32_t bs = device_->block_size();
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(end - offset));
  std::vector<std::uint8_t> buf(bs);
  // Walk the chain but only touch (read) blocks intersecting the range —
  // skipped leading blocks cost FAT pointer chasing, not device I/O.
  std::uint64_t block_start = 0;
  for (const auto block : chain_blocks(loc.value().first_block)) {
    const std::uint64_t block_end = block_start + bs;
    if (block_end > offset) {
      if (block_start >= end) break;
      if (auto st = device_->read(block, buf); !st.is_ok()) {
        return Result<std::vector<std::uint8_t>>(std::move(st));
      }
      const std::uint64_t from = std::max<std::uint64_t>(block_start, offset);
      const std::uint64_t to = std::min<std::uint64_t>(block_end, end);
      out.insert(out.end(),
                 buf.begin() + static_cast<std::ptrdiff_t>(from - block_start),
                 buf.begin() + static_cast<std::ptrdiff_t>(to - block_start));
    }
    block_start = block_end;
    if (block_start >= end) break;
  }
  if (out.size() != end - offset) {
    return Result<std::vector<std::uint8_t>>(StatusCode::kCorruptData,
                                             "chain shorter than size");
  }
  return out;
}

Status FatVolume::remove(std::string_view path) {
  auto loc = locate(path);
  if (!loc.is_ok()) return loc.status();
  if (loc.value().info.is_directory) {
    auto entries = list(path);
    if (!entries.is_ok()) return entries.status();
    if (!entries.value().empty()) {
      return Status(StatusCode::kInvalidArgument, "directory not empty");
    }
  }
  free_chain(loc.value().first_block);
  if (auto st = erase_entry(loc.value()); !st.is_ok()) return st;
  return flush_fat();
}

Result<DirEntry> FatVolume::stat(std::string_view path) {
  auto loc = locate(path);
  if (!loc.is_ok()) return Result<DirEntry>(loc.status());
  return loc.value().info;
}

Result<std::vector<DirEntry>> FatVolume::list(std::string_view path) {
  auto dir = dir_chain_of(path);
  if (!dir.is_ok()) return Result<std::vector<DirEntry>>(dir.status());
  const std::uint32_t bs = device_->block_size();
  std::vector<std::uint8_t> buf(bs);
  std::vector<DirEntry> out;
  for (const auto block : chain_blocks(dir.value())) {
    if (auto st = device_->read(block, buf); !st.is_ok()) {
      return Result<std::vector<DirEntry>>(std::move(st));
    }
    for (std::uint32_t off = 0; off + kEntrySize <= bs; off += kEntrySize) {
      const auto e = RawEntry::from_bytes(buf.data() + off);
      if (e.used) {
        DirEntry d;
        d.name = e.name;
        d.is_directory = e.is_dir != 0;
        d.size = e.size;
        out.push_back(std::move(d));
      }
    }
  }
  return out;
}

std::uint32_t FatVolume::free_blocks() const noexcept {
  std::uint32_t n = 0;
  for (std::uint32_t b = data_start_; b < fat_.size(); ++b) {
    if (fat_[b] == kFatFree) ++n;
  }
  return n;
}

std::uint32_t FatVolume::total_data_blocks() const noexcept {
  return static_cast<std::uint32_t>(fat_.size()) - data_start_;
}

Result<double> FatVolume::fragmentation(std::string_view path) {
  auto loc = locate(path);
  if (!loc.is_ok()) return Result<double>(loc.status());
  const auto blocks = chain_blocks(loc.value().first_block);
  if (blocks.size() < 2) return 0.0;
  int discontiguous = 0;
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i] != blocks[i - 1] + 1) ++discontiguous;
  }
  return static_cast<double>(discontiguous) /
         static_cast<double>(blocks.size() - 1);
}

}  // namespace mmsoc::fs
