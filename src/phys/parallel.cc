#include "phys/parallel.h"

#include <algorithm>

#include "csim/metrics.h"
#include "fp/precision.h"

namespace hfpu {
namespace phys {

/**
 * Captured thread state of the submitting thread: precision settings
 * plus the metric namespace. Installed by every worker before each
 * chunk — workers interleave chunks of different batches (different
 * worlds under the batch scheduler), so the handoff happens at every
 * chunk boundary.
 */
struct ContextSnapshot {
    int mantissaBits[fp::kNumPhases];
    fp::RoundingMode mode;
    fp::Phase phase;
    bool forceSlowPath;
    bool useSoftFloat;
    std::string metricsNamespace;

    static ContextSnapshot
    capture()
    {
        const auto &ctx = fp::PrecisionContext::current();
        ContextSnapshot s;
        for (int p = 0; p < fp::kNumPhases; ++p)
            s.mantissaBits[p] = ctx.mantissaBits(static_cast<fp::Phase>(p));
        s.mode = ctx.roundingMode();
        s.phase = ctx.phase();
        s.forceSlowPath = ctx.forceSlowPath();
        s.useSoftFloat = ctx.useSoftFloat();
        s.metricsNamespace = metrics::ScopedNamespace::current();
        return s;
    }

    void
    apply() const
    {
        auto &ctx = fp::PrecisionContext::current();
        for (int p = 0; p < fp::kNumPhases; ++p)
            ctx.setMantissaBits(static_cast<fp::Phase>(p),
                                mantissaBits[p]);
        ctx.setRoundingMode(mode);
        ctx.setPhase(phase);
        ctx.setForceSlowPath(forceSlowPath);
        ctx.setUseSoftFloat(useSoftFloat);
        metrics::ScopedNamespace::exchange(metricsNamespace);
    }
};

/**
 * One open parallelFor call. Lives on the submitter's stack; the pool
 * holds a pointer only while chunks remain to be claimed or executed.
 * All fields are guarded by the pool mutex except fn/grain/snapshot,
 * which are immutable after submission.
 */
struct WorkerPool::Batch {
    const std::function<void(int)> *fn = nullptr;
    int size = 0;
    int next = 0;    //!< first unclaimed index
    int grain = 1;
    int running = 0; //!< chunks currently executing
    ContextSnapshot snapshot;
};

WorkerPool::WorkerPool(int threads)
{
    // A nonsensical count degrades to serial, matching World's clamp.
    const int workers = std::max(threads, 1) - 1;
    workers_.reserve(workers);
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
WorkerPool::runChunk(std::unique_lock<std::mutex> &lock, Batch &batch,
                     bool applySnapshot)
{
    const int begin = batch.next;
    const int end = std::min(batch.size, begin + batch.grain);
    batch.next = end;
    ++batch.running;
    lock.unlock();
    if (applySnapshot)
        batch.snapshot.apply();
    for (int i = begin; i < end; ++i)
        (*batch.fn)(i);
    lock.lock();
    --batch.running;
    if (batch.next >= batch.size && batch.running == 0)
        done_.notify_all();
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        // Newest open batch first: nested batches drain before the
        // outer batches that spawned them, unblocking their submitters.
        Batch *open = nullptr;
        for (auto it = batches_.rbegin(); it != batches_.rend(); ++it) {
            if ((*it)->next < (*it)->size) {
                open = *it;
                break;
            }
        }
        if (open == nullptr) {
            if (stop_)
                return;
            wake_.wait(lock);
            continue;
        }
        runChunk(lock, *open, /*applySnapshot=*/true);
    }
}

void
WorkerPool::parallelFor(int n, const std::function<void(int)> &fn,
                        int grain)
{
    if (n <= 0)
        return;
    if (grain <= 0) {
        // Several chunks per thread so the dynamic queue still load
        // balances unevenly sized tasks.
        grain = std::max(1, n / (threads() * 4));
    }
    // Serial early-out: no workers to share with, or the whole batch
    // fits in one grain — run on the caller, never touching the mutex.
    if (workers_.empty() || n <= grain || n == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    Batch batch;
    batch.fn = &fn;
    batch.size = n;
    batch.grain = grain;
    batch.snapshot = ContextSnapshot::capture();

    std::unique_lock<std::mutex> lock(mutex_);
    batches_.push_back(&batch);
    wake_.notify_all();
    // The submitting thread works too. Its thread state already *is*
    // the snapshot, so no install is needed; tasks see the same
    // context they would under serial execution.
    while (batch.next < batch.size)
        runChunk(lock, batch, /*applySnapshot=*/false);
    done_.wait(lock, [&] { return batch.running == 0; });
    batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
}

} // namespace phys
} // namespace hfpu
