// Reads a whole file back through io::File::ReadSome, so a test's read-back
// takes the shim's read-retry path (and any installed fault plan) like the
// production readers do.
#pragma once

#include <array>
#include <cstddef>
#include <filesystem>
#include <string>

#include "io/io.h"

namespace lockdown::io::testing {

inline std::string ReadBack(const std::filesystem::path& path) {
  File f = File::OpenRead(path);
  std::string out;
  std::array<std::byte, 1 << 16> buf;
  while (const std::size_t n = f.ReadSome(buf)) {
    out.append(reinterpret_cast<const char*>(buf.data()), n);
  }
  f.Close();
  return out;
}

}  // namespace lockdown::io::testing
