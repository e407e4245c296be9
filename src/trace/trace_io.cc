#include "trace/trace_io.h"

#include <cstdint>
#include <cstdio>
#include <memory>

#include "util/io.h"

namespace fdip
{

namespace
{

constexpr std::uint64_t kMagic = 0x46444950'54524331ULL; // "FDIPTRC1"

struct FileHeader
{
    std::uint64_t magic;
    std::uint64_t count;
};

} // namespace

bool
writeTraceFile(const std::string &path, const std::vector<DynInst> &insts)
{
    FileHandle f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    FileHeader h{kMagic, insts.size()};
    if (std::fwrite(&h, sizeof(h), 1, f.get()) != 1)
        return false;
    if (!insts.empty() &&
        std::fwrite(insts.data(), sizeof(DynInst), insts.size(), f.get()) !=
            insts.size()) {
        return false;
    }
    return true;
}

bool
readTraceFile(const std::string &path, std::vector<DynInst> &insts)
{
    FileHandle f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;
    FileHeader h{};
    if (std::fread(&h, sizeof(h), 1, f.get()) != 1 || h.magic != kMagic)
        return false;
    // The count in the header is untrusted: it must describe exactly
    // the bytes that follow before anything is allocated for it.
    // Dividing the body size, not multiplying the count, cannot
    // overflow.
    const long header_end = std::ftell(f.get());
    if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0)
        return false;
    const long file_end = std::ftell(f.get());
    if (file_end < header_end ||
        std::fseek(f.get(), header_end, SEEK_SET) != 0) {
        return false;
    }
    const auto body = static_cast<std::uint64_t>(file_end - header_end);
    if (body % sizeof(DynInst) != 0 || body / sizeof(DynInst) != h.count)
        return false;
    insts.resize(h.count);
    if (h.count != 0 &&
        std::fread(insts.data(), sizeof(DynInst), h.count, f.get()) !=
            h.count) {
        return false;
    }
    return true;
}

} // namespace fdip
