#include "fs/import.h"

#include "common/rng.h"
#include "dsp/crc32.h"

namespace mmsoc::fs {

using common::Result;
using common::StatusCode;

namespace {

// Name fragments imitating the zoo of naming conventions on burned discs.
const char* const kArtists[] = {"Artist", "the_band", "VA", "DJ-Mix",
                                "Unknown Artist", "COMPILATION"};
const char* const kStyles[] = {"Track", "track", "TRACK", "01 - song",
                               "audio_file", "Song.Name.Here"};

std::string make_name(common::Rng& rng, int index, bool dir) {
  std::string base;
  if (dir) {
    base = kArtists[rng.next_below(std::size(kArtists))];
    base += " Vol ";
    base += std::to_string(index + 1);
  } else {
    base = kStyles[rng.next_below(std::size(kStyles))];
    base += "_";
    base += std::to_string(index + 1);
    base += ".mp3";
  }
  // Keep within the FS name limit.
  if (base.size() > kMaxNameLength) base.resize(kMaxNameLength);
  // Path separators are not valid in names; the fragments above avoid
  // them by construction.
  return base;
}

}  // namespace

Result<std::vector<ImportedFile>> import_foreign_tree(
    FatVolume& volume, const ForeignTreeSpec& spec) {
  common::Rng rng(spec.seed);
  std::vector<ImportedFile> manifest;

  for (int d = 0; d < spec.num_dirs; ++d) {
    // Random nesting depth for this branch.
    const int depth = 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(spec.max_depth)));
    std::string dir;
    for (int level = 0; level < depth; ++level) {
      dir += "/";
      dir += make_name(rng, d * spec.max_depth + level, /*dir=*/true);
      if (auto st = volume.mkdir(dir);
          !st.is_ok() && st.code() != StatusCode::kAlreadyExists) {
        return Result<std::vector<ImportedFile>>(std::move(st));
      }
    }
    for (int f = 0; f < spec.files_per_dir; ++f) {
      const std::size_t size =
          spec.min_file_bytes +
          rng.next_below(spec.max_file_bytes - spec.min_file_bytes + 1);
      std::vector<std::uint8_t> contents(size);
      for (auto& b : contents) b = static_cast<std::uint8_t>(rng.next());
      const std::string path = dir + "/" + make_name(rng, f, /*dir=*/false);
      if (auto st = volume.write_file(path, contents); !st.is_ok()) {
        return Result<std::vector<ImportedFile>>(std::move(st));
      }
      ImportedFile imported;
      imported.path = path;
      imported.size = size;
      imported.crc32 = dsp::crc32(contents);
      manifest.push_back(std::move(imported));
    }
  }
  return manifest;
}

}  // namespace mmsoc::fs
