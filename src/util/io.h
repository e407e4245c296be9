/**
 * @file
 * The two helpers every report and file writer shares: an owned
 * std::FILE that closes itself, and the minimal JSON string escaping
 * the writers apply to labels, workload names and identifiers.
 */

#ifndef FDIP_UTIL_IO_H_
#define FDIP_UTIL_IO_H_

#include <cstdio>
#include <memory>
#include <string>

namespace fdip
{

/** Deleter of FileHandle. */
struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/** A std::FILE closed when the handle goes out of scope. */
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

/** Minimal JSON string escaping: backslash-escapes '"' and '\\' and
 *  drops control characters (names here are simple identifiers). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out;
}

} // namespace fdip

#endif // FDIP_UTIL_IO_H_
