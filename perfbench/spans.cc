#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &other_data) const
{
    // One async begin/end pair per span, keyed by the span index, in
    // timestamp order (begins before ends at equal times, so a
    // zero-length span still opens before it closes).
    struct Event
    {
        std::int64_t ts;
        int order; ///< 0 = begin, 1 = end.
        int span;
    };
    std::vector<Event> events;
    std::int64_t origin = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < s.startNs)
            continue; // Never closed: a crashed layer call.
        if (events.empty() || s.startNs < origin)
            origin = s.startNs;
        events.push_back({s.startNs, 0, static_cast<int>(i)});
        events.push_back({s.endNs, 1, static_cast<int>(i)});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts != b.ts ? a.ts < b.ts
                                             : a.order < b.order;
                     });

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n",
                 other_data.c_str());
    std::fprintf(f, "\"traceEvents\": [\n"
                    "{\"ph\": \"M\", \"name\": \"process_name\", "
                    "\"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"name\": \"fdip_perfbench\"}}");
    for (const Event &e : events) {
        const Span &s = spans_[static_cast<std::size_t>(e.span)];
        std::fprintf(f,
                     ",\n{\"ph\": \"%s\", \"name\": \"%s\", \"cat\": \"%s\", "
                     "\"id\": %d, \"pid\": 1, \"tid\": 1, \"ts\": %.3f",
                     e.order == 0 ? "b" : "e", s.name.c_str(),
                     s.layer.c_str(), e.span,
                     static_cast<double>(e.ts - origin) * 1e-3);
        if (e.order == 0) {
            std::fprintf(f,
                         ", \"args\": {\"parent\": %d, \"run_id\": %llu}",
                         s.parent, static_cast<unsigned long long>(runId_));
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
