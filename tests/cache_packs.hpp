/**
 * @file
 * Test helpers that find and forge result-cache records through the
 * documented pack framing (core/result_cache.hpp, "Layout"): a 24-byte
 * header — magic "AWR1", envelope length, fnv1a64(key), store stamp,
 * all little-endian — and then the envelope.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/result_cache.hpp"

namespace aw::test {

constexpr size_t kPackHeaderBytes = 24;

/** One record of a pack. */
struct PackedRecord
{
    std::filesystem::path pack;
    uint64_t offset = 0; ///< of the record's header
    std::string header;  ///< the 24 header bytes
    std::string entry;   ///< the envelope
};

inline uint64_t
littleEndian(const std::string &bytes, size_t at, int width)
{
    uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
    return v;
}

inline std::string
littleEndianBytes(uint64_t v, int width)
{
    std::string out(width, '\0');
    for (int i = 0; i < width; ++i)
        out[i] = static_cast<char>(v >> (8 * i));
    return out;
}

inline std::string
readFileBytes(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every `pack-*` file in `dir`, sorted by name. */
inline std::vector<std::filesystem::path>
packFiles(const std::string &dir)
{
    std::vector<std::filesystem::path> out;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.path().filename().string().rfind("pack-", 0) == 0)
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

/** Every complete record in `dir`'s packs, pack by pack in file order. */
inline std::vector<PackedRecord>
recordsIn(const std::string &dir)
{
    std::vector<PackedRecord> out;
    for (const auto &pack : packFiles(dir)) {
        const std::string bytes = readFileBytes(pack);
        size_t pos = 0;
        while (pos + kPackHeaderBytes <= bytes.size() &&
               bytes.compare(pos, 4, "AWR1") == 0) {
            const auto length = littleEndian(bytes, pos + 4, 4);
            if (pos + kPackHeaderBytes + length > bytes.size())
                break;
            out.push_back({pack, pos, bytes.substr(pos, kPackHeaderBytes),
                           bytes.substr(pos + kPackHeaderBytes, length)});
            pos += kPackHeaderBytes + length;
        }
    }
    return out;
}

/** The records of `dir` whose header hashes `key`. */
inline std::vector<PackedRecord>
recordsOf(const std::string &dir, const std::string &key)
{
    std::vector<PackedRecord> out;
    for (PackedRecord &r : recordsIn(dir))
        if (littleEndian(r.header, 8, 8) == fnv1a64(key))
            out.push_back(std::move(r));
    return out;
}

/** A record hashed like `key`, holding `entry`, stamped `stamp`. */
inline std::string
framedRecord(const std::string &key, const std::string &entry, uint64_t stamp)
{
    return "AWR1" + littleEndianBytes(entry.size(), 4) +
           littleEndianBytes(fnv1a64(key), 8) +
           littleEndianBytes(stamp, 8) + entry;
}

/** Overwrite the bytes at `offset` of `path` in place. */
inline void
overwriteAt(const std::filesystem::path &path, uint64_t offset,
            const std::string &bytes)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f << bytes;
}

/** Write `bytes` as the pack `dir/name`, as another writer would. */
inline void
writePack(const std::string &dir, const std::string &name,
          const std::string &bytes)
{
    std::filesystem::create_directories(dir);
    std::ofstream out(std::filesystem::path(dir) / name,
                      std::ios::binary | std::ios::trunc);
    out << bytes;
}

} // namespace aw::test
