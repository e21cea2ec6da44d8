// Tests for the embedded filesystem (§7): block device, FAT volume
// invariants, fragmentation behaviour, foreign-tree import.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dsp/crc32.h"
#include "fs/block_device.h"
#include "fs/fat.h"
#include "fs/import.h"

namespace mmsoc::fs {
namespace {

using common::Rng;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// ------------------------------------------------------------ block device

TEST(BlockDevice, ReadBackWhatWasWritten) {
  BlockDevice dev(16, 256);
  const auto data = pattern_bytes(256, 1);
  ASSERT_TRUE(dev.write(3, data).is_ok());
  std::vector<std::uint8_t> out(256);
  ASSERT_TRUE(dev.read(3, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(BlockDevice, BoundsChecked) {
  BlockDevice dev(4, 128);
  std::vector<std::uint8_t> buf(128);
  EXPECT_FALSE(dev.read(4, buf).is_ok());
  EXPECT_FALSE(dev.write(100, buf).is_ok());
  std::vector<std::uint8_t> wrong(64);
  EXPECT_FALSE(dev.read(0, wrong).is_ok());
}

TEST(BlockDevice, SeekAccounting) {
  BlockDevice dev(100, 128);
  std::vector<std::uint8_t> buf(128);
  ASSERT_TRUE(dev.read(0, buf).is_ok());   // head 0 -> 0
  ASSERT_TRUE(dev.read(50, buf).is_ok());  // +50
  ASSERT_TRUE(dev.read(10, buf).is_ok());  // +40
  EXPECT_EQ(dev.seek_distance(), 90u);
  EXPECT_EQ(dev.reads(), 3u);
  dev.reset_stats();
  EXPECT_EQ(dev.seek_distance(), 0u);
}

TEST(BlockDevice, SequentialCheaperThanRandom) {
  BlockDevice dev(1000, 128);
  std::vector<std::uint8_t> buf(128);
  for (std::uint32_t b = 0; b < 100; ++b) ASSERT_TRUE(dev.read(b, buf).is_ok());
  const double sequential = dev.modeled_time_us();
  dev.reset_stats();
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(dev.read(static_cast<std::uint32_t>(rng.next_below(1000)), buf).is_ok());
  }
  const double random = dev.modeled_time_us();
  EXPECT_GT(random, 2.0 * sequential);
}

// -------------------------------------------------------------- path utils

TEST(SplitPath, Basics) {
  auto p = split_path("/a/b/c.mp3");
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value(), (std::vector<std::string>{"a", "b", "c.mp3"}));
  EXPECT_TRUE(split_path("/").is_ok());
  EXPECT_TRUE(split_path("/").value().empty());
}

TEST(SplitPath, Rejections) {
  EXPECT_FALSE(split_path("relative/path").is_ok());
  EXPECT_FALSE(split_path("").is_ok());
  EXPECT_FALSE(split_path("/a//b").is_ok());
  EXPECT_FALSE(split_path("/" + std::string(100, 'x')).is_ok());
}

// ------------------------------------------------------------- fat volume

struct FatFixture : ::testing::Test {
  BlockDevice dev{512, 256};
  std::optional<FatVolume> vol;

  void SetUp() override {
    auto v = FatVolume::format(dev);
    ASSERT_TRUE(v.is_ok()) << v.status().to_text();
    vol.emplace(std::move(v).value());
  }
};

TEST_F(FatFixture, WriteReadRoundTrip) {
  const auto data = pattern_bytes(1000, 3);
  ASSERT_TRUE(vol->write_file("/hello.bin", data).is_ok());
  auto back = vol->read_file("/hello.bin");
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(FatFixture, EmptyFile) {
  ASSERT_TRUE(vol->write_file("/empty", {}).is_ok());
  auto back = vol->read_file("/empty");
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().empty());
  auto st = vol->stat("/empty");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st.value().size, 0u);
}

TEST_F(FatFixture, LargeFileSpanningManyBlocks) {
  // §7: "large file sizes" — bigger than any single block by far.
  const auto data = pattern_bytes(40000, 4);  // 157 blocks of 256
  ASSERT_TRUE(vol->write_file("/big.dat", data).is_ok());
  auto back = vol->read_file("/big.dat");
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(FatFixture, OverwriteReplacesContents) {
  ASSERT_TRUE(vol->write_file("/f", pattern_bytes(500, 5)).is_ok());
  const auto second = pattern_bytes(200, 6);
  ASSERT_TRUE(vol->write_file("/f", second).is_ok());
  auto back = vol->read_file("/f");
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), second);
  // Only one directory entry remains.
  auto entries = vol->list("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries.value().size(), 1u);
}

TEST_F(FatFixture, AppendExtendsFile) {
  const auto a = pattern_bytes(300, 7);
  const auto b = pattern_bytes(450, 8);
  ASSERT_TRUE(vol->write_file("/log", a).is_ok());
  ASSERT_TRUE(vol->append_file("/log", b).is_ok());
  auto back = vol->read_file("/log");
  ASSERT_TRUE(back.is_ok());
  std::vector<std::uint8_t> expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  EXPECT_EQ(back.value(), expected);
}

TEST_F(FatFixture, AppendToMissingFileCreatesIt) {
  const auto data = pattern_bytes(100, 9);
  ASSERT_TRUE(vol->append_file("/new", data).is_ok());
  EXPECT_EQ(vol->read_file("/new").value(), data);
}

TEST_F(FatFixture, DirectoriesNestAndList) {
  ASSERT_TRUE(vol->mkdir("/music").is_ok());
  ASSERT_TRUE(vol->mkdir("/music/rock").is_ok());
  ASSERT_TRUE(vol->write_file("/music/rock/song.mp3", pattern_bytes(100, 10)).is_ok());
  ASSERT_TRUE(vol->write_file("/music/readme.txt", pattern_bytes(10, 11)).is_ok());

  auto root = vol->list("/");
  ASSERT_TRUE(root.is_ok());
  ASSERT_EQ(root.value().size(), 1u);
  EXPECT_EQ(root.value()[0].name, "music");
  EXPECT_TRUE(root.value()[0].is_directory);

  auto music = vol->list("/music");
  ASSERT_TRUE(music.is_ok());
  EXPECT_EQ(music.value().size(), 2u);

  auto rock = vol->list("/music/rock");
  ASSERT_TRUE(rock.is_ok());
  ASSERT_EQ(rock.value().size(), 1u);
  EXPECT_EQ(rock.value()[0].name, "song.mp3");
  EXPECT_EQ(rock.value()[0].size, 100u);
}

TEST_F(FatFixture, ManyEntriesGrowDirectoryChain) {
  // 256-byte blocks hold 4 entries; 20 files force chain growth.
  for (int i = 0; i < 20; ++i) {
    const std::string path = "/file_" + std::to_string(i);
    ASSERT_TRUE(vol->write_file(path, pattern_bytes(50, 100 + static_cast<std::uint64_t>(i))).is_ok());
  }
  auto entries = vol->list("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries.value().size(), 20u);
  // All retrievable.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(vol->read_file("/file_" + std::to_string(i)).is_ok());
  }
}

TEST_F(FatFixture, RemoveFreesBlocks) {
  const auto before = vol->free_blocks();
  ASSERT_TRUE(vol->write_file("/f", pattern_bytes(5000, 12)).is_ok());
  EXPECT_LT(vol->free_blocks(), before);
  ASSERT_TRUE(vol->remove("/f").is_ok());
  EXPECT_EQ(vol->free_blocks(), before);
  EXPECT_FALSE(vol->read_file("/f").is_ok());
}

TEST_F(FatFixture, RemoveNonEmptyDirectoryFails) {
  ASSERT_TRUE(vol->mkdir("/d").is_ok());
  ASSERT_TRUE(vol->write_file("/d/f", pattern_bytes(10, 13)).is_ok());
  EXPECT_FALSE(vol->remove("/d").is_ok());
  ASSERT_TRUE(vol->remove("/d/f").is_ok());
  EXPECT_TRUE(vol->remove("/d").is_ok());
}

TEST_F(FatFixture, MkdirDuplicateFails) {
  ASSERT_TRUE(vol->mkdir("/d").is_ok());
  const auto st = vol->mkdir("/d");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), common::StatusCode::kAlreadyExists);
}

TEST_F(FatFixture, MissingPathsFail) {
  EXPECT_FALSE(vol->read_file("/nope").is_ok());
  EXPECT_FALSE(vol->stat("/nope").is_ok());
  EXPECT_FALSE(vol->list("/nope").is_ok());
  EXPECT_FALSE(vol->write_file("/nodir/f", pattern_bytes(5, 14)).is_ok());
}

TEST_F(FatFixture, VolumeFullReported) {
  // 512 blocks of 256 B minus metadata: ~500 data blocks = 128 KB.
  const auto big = pattern_bytes(200000, 15);
  const auto st = vol->write_file("/toobig", big);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), common::StatusCode::kResourceExhausted);
  // Failed write must not leak blocks: a small file still fits.
  EXPECT_TRUE(vol->write_file("/small", pattern_bytes(1000, 16)).is_ok());
}

TEST_F(FatFixture, MountSeesExistingData) {
  const auto data = pattern_bytes(777, 17);
  ASSERT_TRUE(vol->mkdir("/persist").is_ok());
  ASSERT_TRUE(vol->write_file("/persist/f.bin", data).is_ok());
  // Re-mount the same device (player power cycle).
  auto again = FatVolume::mount(dev);
  ASSERT_TRUE(again.is_ok());
  auto back = again.value().read_file("/persist/f.bin");
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(FatFixture, MountRejectsUnformattedDevice) {
  BlockDevice blank(64, 256);
  EXPECT_FALSE(FatVolume::mount(blank).is_ok());
}

TEST_F(FatFixture, DeleteCreateCyclesFragmentFiles) {
  // The §7 non-sequential allocation experiment in miniature: run the
  // volume near capacity, then churn — replacement files no longer fit in
  // single holes and their chains scatter across the disk.
  Rng rng(18);
  std::vector<std::string> live;
  // Prefill ~80%: 40 files x 10 blocks on a ~500-data-block volume.
  for (int i = 0; i < 40; ++i) {
    const std::string path = "/fill_" + std::to_string(i);
    ASSERT_TRUE(vol->write_file(path, pattern_bytes(2500, 100 + static_cast<std::uint64_t>(i))).is_ok());
    live.push_back(path);
  }
  // Churn: delete a small file, try to create a larger one.
  for (int round = 0; round < 120; ++round) {
    if (!live.empty()) {
      const auto idx = rng.next_below(live.size());
      ASSERT_TRUE(vol->remove(live[idx]).is_ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    const std::string path = "/churn_" + std::to_string(round);
    const auto st = vol->write_file(
        path, pattern_bytes(3000 + rng.next_below(4000), 200 + static_cast<std::uint64_t>(round)));
    if (st.is_ok()) live.push_back(path);
  }
  ASSERT_FALSE(live.empty());
  double max_frag = 0.0, sum_frag = 0.0;
  for (const auto& path : live) {
    auto f = vol->fragmentation(path);
    ASSERT_TRUE(f.is_ok());
    max_frag = std::max(max_frag, f.value());
    sum_frag += f.value();
  }
  EXPECT_GT(max_frag, 0.2);  // churn produced genuinely fragmented chains
  EXPECT_GT(sum_frag / static_cast<double>(live.size()), 0.02);
  // And every file still reads back correctly despite fragmentation.
  for (const auto& path : live) {
    EXPECT_TRUE(vol->read_file(path).is_ok());
  }
}

TEST_F(FatFixture, FreshFileIsSequential) {
  ASSERT_TRUE(vol->write_file("/seq", pattern_bytes(4000, 19)).is_ok());
  auto f = vol->fragmentation("/seq");
  ASSERT_TRUE(f.is_ok());
  EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

// ------------------------------------------------------------------ import

TEST(Fat, RangedReadMatchesFullReadAndTouchesFewerBlocks) {
  BlockDevice dev(256, 128);
  auto vol = FatVolume::format(dev);
  ASSERT_TRUE(vol.is_ok());
  std::vector<std::uint8_t> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ASSERT_TRUE(vol.value().write_file("/stream", data).is_ok());

  auto slice = [&](std::uint64_t off, std::uint64_t len) {
    auto r = vol.value().read_file_range("/stream", off, len);
    EXPECT_TRUE(r.is_ok()) << r.status().to_text();
    return r.value();
  };
  // Interior, block-straddling, and EOF-clipped ranges all match the
  // corresponding slice of a full read.
  const auto full = vol.value().read_file("/stream");
  ASSERT_TRUE(full.is_ok());
  for (const auto& [off, len] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 100},
        {100, 128},
        {117, 300},
        {2900, 500},   // clipped to the last 100 bytes
        {0, 100000}}) {  // clipped to the whole file
    const auto got = slice(off, len);
    const auto want_len =
        std::min<std::uint64_t>(len, data.size() > off ? data.size() - off : 0);
    ASSERT_EQ(got.size(), want_len) << off << "+" << len;
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           full.value().begin() +
                               static_cast<std::ptrdiff_t>(off)));
  }
  EXPECT_TRUE(slice(3000, 10).empty());
  EXPECT_TRUE(slice(9999, 1).empty());
  EXPECT_TRUE(slice(5, 0).empty());
  // A one-block range must not pay the whole chain in device reads — the
  // property that makes the streaming BlockFileSource's unit reads cheap.
  dev.reset_stats();
  (void)slice(0, 64);
  const auto small = dev.reads();
  dev.reset_stats();
  (void)vol.value().read_file("/stream");
  EXPECT_LT(small, dev.reads());
  // Errors still surface.
  EXPECT_FALSE(vol.value().read_file_range("/nope", 0, 1).is_ok());
  ASSERT_TRUE(vol.value().mkdir("/d").is_ok());
  EXPECT_FALSE(vol.value().read_file_range("/d", 0, 1).is_ok());
}

TEST(ForeignImport, ManifestMatchesVolumeContents) {
  BlockDevice dev(4096, 256);
  auto v = FatVolume::format(dev);
  ASSERT_TRUE(v.is_ok());
  auto& vol = v.value();

  ForeignTreeSpec spec;
  spec.num_dirs = 4;
  spec.files_per_dir = 5;
  spec.seed = 42;
  auto manifest = import_foreign_tree(vol, spec);
  ASSERT_TRUE(manifest.is_ok()) << manifest.status().to_text();
  EXPECT_EQ(manifest.value().size(), 20u);

  // Every manifest file reads back with the right size and checksum —
  // the CD/MP3 player handling "a wide variety of directory structures,
  // file names, etc."
  for (const auto& f : manifest.value()) {
    auto data = vol.read_file(f.path);
    ASSERT_TRUE(data.is_ok()) << f.path;
    EXPECT_EQ(data.value().size(), f.size);
    EXPECT_EQ(dsp::crc32(data.value()), f.crc32);
  }
}

TEST(ForeignImport, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    BlockDevice dev(4096, 256);
    auto v = FatVolume::format(dev);
    ForeignTreeSpec spec;
    spec.seed = seed;
    auto m = import_foreign_tree(v.value(), spec);
    std::vector<std::string> paths;
    for (const auto& f : m.value()) paths.push_back(f.path);
    return paths;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace mmsoc::fs
