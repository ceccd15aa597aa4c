/**
 * @file
 * In-memory span tracing for the benchmark's traced runs.
 *
 * Every call the benchmark makes into one of the library's layers can
 * be wrapped in Tracer::timed (the C++ form of a timing decorator):
 * with tracing off the call runs bare, with tracing on it becomes a
 * span — name, start, end, the span that caused it, and the request
 * it belongs to. Spans stay in memory until write() dumps them as a
 * Chrome trace-event file when the benchmark ends.
 *
 * Span names are "<layer>.<function>" with the layer named after its
 * src/ module, so per-layer metrics are medians over span durations.
 */
#ifndef PERFBENCH_SPAN_TRACE_HH
#define PERFBENCH_SPAN_TRACE_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";    //!< Interned "<layer>.<function>".
        std::uint64_t id = 0;     //!< Unique, > 0.
        std::uint64_t parent = 0; //!< Enclosing span on this thread.
        std::uint64_t req = 0;    //!< Root span id of the request.
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t arg = -1;    //!< Caller tag (layer index, ...).
        std::uint32_t tid = 0;
    };

    /** The process-wide tracer (off until setOn(true)). */
    static Tracer &get();

    /** Switch recording on or off; call only while no other thread
     *  is inside timed(). */
    void setOn(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Run @p f, recording it as span @p name when tracing is on. */
    template <typename F>
    decltype(auto)
    timed(const char *name, std::int64_t arg, F &&f)
    {
        if (!on_)
            return f();
        Scope scope(*this, name, arg);
        return f();
    }

    template <typename F>
    decltype(auto)
    timed(const char *name, F &&f)
    {
        return timed(name, -1, std::forward<F>(f));
    }

    /** A stable copy of @p name for spans named at run time. */
    const char *intern(const std::string &name);

    /** Durations (µs) of every span called @p name, in record order;
     *  with @p arg >= 0 only spans carrying that tag. */
    std::vector<double> durationsUs(const std::string &name,
                                    std::int64_t arg = -1) const;

    /** Number of spans recorded so far. */
    std::size_t size() const;

    /** Dump every span as Chrome trace-event JSON, with @p meta (a
     *  JSON object) under "metadata". Returns false on an I/O error. */
    bool write(const std::string &path, const std::string &meta) const;

  private:
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::int64_t arg);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        Span span_;
        std::uint64_t saved_parent_;
        std::uint64_t saved_req_;
    };

    std::int64_t nowNs() const;

    bool on_ = false;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;         //!< Guarded by mu_.
    std::deque<std::string> names_;   //!< Guarded by mu_; stable storage.
    std::uint64_t next_id_ = 1;       //!< Guarded by mu_.
    std::uint32_t next_tid_ = 1;      //!< Guarded by mu_.
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_HH
