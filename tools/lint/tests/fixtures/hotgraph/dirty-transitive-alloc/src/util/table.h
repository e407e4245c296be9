// Seeded violation: a FDIP_HOT_PATH function calls an *unannotated*
// helper that allocates. A scan of annotated spans alone cannot see
// this (the banned operations sit in a body without the annotation); the
// closure analysis must report the helper as unannotated-reachable
// AND surface its heap allocation and growing-container calls.
#ifndef FDIP_UTIL_TABLE_H_
#define FDIP_UTIL_TABLE_H_

#include <vector>

#ifndef FDIP_HOT_PATH
#define FDIP_HOT_PATH __attribute__((hot))
#endif

namespace fdip
{

class Table
{
  public:
    FDIP_HOT_PATH void record(unsigned v) { append(v); }

  private:
    void append(unsigned v)
    {
        slots_.push_back(v);
        scratch_ = new unsigned[8];
        scratch_[0] = v;
    }

    std::vector<unsigned> slots_;
    unsigned *scratch_ = nullptr;
};

} // namespace fdip

#endif // FDIP_UTIL_TABLE_H_
