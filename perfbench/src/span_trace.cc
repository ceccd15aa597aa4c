#include "span_trace.hh"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current = 0; //!< Innermost open span.
thread_local std::uint64_t t_req = 0;     //!< Its request's root span.
thread_local std::uint32_t t_tid = 0;     //!< 0 = not yet assigned.

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *name, std::int64_t arg)
    : t_(t), saved_parent_(t_current), saved_req_(t_req)
{
    {
        std::lock_guard<std::mutex> lock(t_.mu_);
        span_.id = t_.next_id_++;
        if (t_tid == 0)
            t_tid = t_.next_tid_++;
    }
    span_.name = name;
    span_.parent = t_current;
    span_.req = t_current ? t_req : span_.id;
    span_.arg = arg;
    span_.tid = t_tid;
    t_current = span_.id;
    t_req = span_.req;
    span_.start_ns = t_.nowNs();
}

Tracer::Scope::~Scope()
{
    span_.end_ns = t_.nowNs();
    t_current = saved_parent_;
    t_req = saved_req_;
    std::lock_guard<std::mutex> lock(t_.mu_);
    t_.spans_.push_back(span_);
}

const char *
Tracer::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string &n : names_)
        if (n == name)
            return n.c_str();
    names_.push_back(name);
    return names_.back().c_str();
}

std::vector<double>
Tracer::durationsUs(const std::string &name, std::int64_t arg) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span &s : spans_)
        if (name == s.name && (arg < 0 || s.arg == arg))
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                          1e3);
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path, const std::string &meta) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << "{\"metadata\":" << meta << ",\"traceEvents\":[\n";
    std::lock_guard<std::mutex> lock(mu_);
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                      "\"arg\":%lld}}%s\n",
                      s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.req),
                      static_cast<long long>(s.arg),
                      i + 1 < spans_.size() ? "," : "");
        f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f.flush());
}

} // namespace perfbench
