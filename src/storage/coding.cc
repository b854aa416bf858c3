#include "storage/coding.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace opinedb::storage {

void AppendU32(uint32_t v, std::string* out) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>(v >> 24)};
  out->append(bytes, sizeof(bytes));
}

void AppendU64(uint64_t v, std::string* out) {
  AppendU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  AppendU32(static_cast<uint32_t>(v >> 32), out);
}

bool ReadU32(std::string_view in, size_t* pos, uint32_t* out) {
  if (in.size() - *pos < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(in.data() + *pos);
  *out = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
  *pos += 4;
  return true;
}

bool ReadU64(std::string_view in, size_t* pos, uint64_t* out) {
  if (in.size() - *pos < 8) return false;
  uint32_t lo = 0, hi = 0;
  ReadU32(in, pos, &lo);
  ReadU32(in, pos, &hi);
  *out = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool ParseDecimalU64(std::string_view text, uint64_t* out) {
  // For an unsigned type from_chars takes no sign, space or radix prefix
  // and reports overflow; it must also consume every byte.
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

std::string NumberedFileName(std::string_view prefix, uint64_t n,
                             std::string_view suffix) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%013llu",
                static_cast<unsigned long long>(n));
  std::string name(prefix);
  name += digits;
  name += suffix;
  return name;
}

bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* n) {
  if (name.size() < prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return false;
  }
  name.remove_prefix(prefix.size());
  name.remove_suffix(suffix.size());
  return ParseDecimalU64(name, n);
}

void WriteNetstring(std::string_view s, std::ostream* out) {
  *out << s.size() << ':' << s;
}

Result<std::string> ReadNetstring(std::istream* in, size_t max_length) {
  size_t length = 0;
  char colon = 0;
  if (!(*in >> length) || !in->get(colon) || colon != ':') {
    return Status::ParseError("bad string header");
  }
  if (length > max_length) {
    return Status::ParseError("implausible string length " +
                              std::to_string(length));
  }
  std::string s(length, '\0');
  if (!in->read(s.data(), static_cast<std::streamsize>(length))) {
    return Status::ParseError("truncated string");
  }
  return s;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  // ifstream reports failure through its state, never by throwing, so a
  // vanished or unreadable file is a clean status.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read failed: " + path);
  return std::move(buffer).str();
}

bool WriteAll(int fd, std::string_view bytes) {
  const char* data = bytes.data();
  size_t n = bytes.size();
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return true;
}

void SyncDir(const std::string& dir) {
  const int fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace opinedb::storage
