#include "tensor/tuning.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace tcb {
namespace {

/// Parses a sysfs cache size string ("48K", "2048K", "1M", "36608K").
std::size_t parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return 0;
  std::size_t mult = 1;
  if (end && (*end == 'K' || *end == 'k')) mult = 1024;
  if (end && (*end == 'M' || *end == 'm')) mult = 1024 * 1024;
  return static_cast<std::size_t>(v) * mult;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

CacheGeometry detect_geometry() {
  CacheGeometry g;
  // /sys/devices/system/cpu/cpu0/cache/indexN/{level,type,size}; index order
  // is not guaranteed to match level order, so scan and match.
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_line(base + "level");
    if (level.empty()) continue;
    const std::string type = read_line(base + "type");
    const std::size_t size = parse_cache_size(read_line(base + "size"));
    if (size == 0) continue;
    if (level == "1" && type == "Data") {
      g.l1d_bytes = size;
      g.detected = true;
    } else if (level == "2" && (type == "Unified" || type == "Data")) {
      g.l2_bytes = size;
      g.detected = true;
    }
  }
  return g;
}

}  // namespace

std::string CacheGeometry::to_string() const {
  std::ostringstream os;
  os << "l1d=" << l1d_bytes / 1024 << "KiB l2=" << l2_bytes / 1024 << "KiB"
     << (detected ? "" : " (fallback)");
  return os.str();
}

const CacheGeometry& cache_geometry() {
  static const CacheGeometry g = detect_geometry();
  return g;
}

}  // namespace tcb
