#include "trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>

namespace perfbench {

const char* span_name(std::uint32_t name) {
  static constexpr const char* kNames[kSpanNameCount] = {
      "net.recv",        "query",           "dns.decode",       "defense.firewall",
      "defense.score",   "defense.enqueue", "defense.next",     "defense.queue_wait",
      "server.respond.hit", "server.respond.compiled", "server.respond.interpreted",
      "defense.observe", "net.send"};
  return name < kSpanNameCount ? kNames[name] : "unknown";
}

std::vector<LayerTotals> summarize(const std::vector<const SpanBuffer*>& buffers) {
  std::vector<LayerTotals> out(kSpanNameCount);
  for (const SpanBuffer* buf : buffers) {
    const auto& spans = buf->spans();
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto& t = out[spans[i].name];
      const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      ++t.count;
      t.total_ns += d;
      t.self_ns += static_cast<double>(self[i]);
      t.durations_ns.push_back(d);
    }
  }
  return out;
}

bool write_span_dump(const std::string& path, const std::vector<const SpanBuffer*>& buffers) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "buffer\tindex\tquery_id\tname\tparent\tstart_ns\tend_ns\n");
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const auto& spans = buffers[b]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f.get(), "%zu\t%zu\t%016" PRIx64 "\t%s\t%d\t%" PRId64 "\t%" PRId64 "\n", b, i,
                   s.query_id, span_name(s.name), s.parent, s.start_ns, s.end_ns);
    }
  }
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
