#ifndef HFPU_PHYS_PARALLEL_H
#define HFPU_PHYS_PARALLEL_H

/**
 * @file
 * Persistent worker-thread pool with a work-queue model, mirroring the
 * paper's parallelization of ODE ("parallelized using POSIX threads
 * and a work-queue model with persistent worker threads" — persistent
 * threads eliminate creation/destruction costs). The engine uses it
 * for the two massively parallel phases: narrow-phase pairs and
 * per-island LCP solves; the batch simulation service (src/srv) uses
 * the same pool as the substrate for its two-level parallelism.
 *
 * Work is claimed in index *chunks* of a grain size rather than one
 * index per mutex round-trip, so the per-task overhead is amortized;
 * degenerate batches (empty, single-task, or smaller than one grain)
 * run serially on the caller without ever touching the mutex or
 * condition variables.
 *
 * The pool services any number of batches at once: parallelFor may be
 * called concurrently from several threads, and — the property the
 * batch scheduler leans on — from *inside* a task running on a pool
 * worker. A nested call opens a fresh batch that idle workers join
 * while the submitting worker drains it itself, so per-world island
 * parallelism composes with across-world parallelism on one shared
 * pool. Workers prefer the most recently opened batch (LIFO), which
 * drains nested batches first and keeps their submitters blocked for
 * the shortest time.
 *
 * Thread-local state handoff: each batch captures the submitting
 * thread's PrecisionContext settings and metrics namespace, and every
 * worker installs that snapshot before executing a chunk of the batch.
 * Workers may interleave chunks of different batches (different
 * worlds), so the install happens at every chunk boundary; results are
 * bit-exact regardless of which thread ran which chunk, since tasks
 * are independent.
 */

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hfpu {
namespace phys {

/** Persistent worker pool executing indexed task batches. */
class WorkerPool
{
  public:
    /**
     * @param threads worker count (the caller also works). Values
     *                below 1 are clamped to 1 (serial).
     */
    explicit WorkerPool(int threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run fn(0..n-1) across the pool (work-queue order, chunks claimed
     * dynamically). Blocks until all tasks finish. The caller's
     * PrecisionContext settings and metrics namespace are replicated
     * into each worker for every chunk of this batch. Tasks must be
     * independent.
     *
     * Reentrant: may be called concurrently from several threads and
     * from inside a task already running on this pool (the nested
     * batch is drained by its submitter plus any idle workers).
     *
     * @param grain indices claimed per mutex round-trip; <= 0 picks a
     *              size that yields several chunks per thread. Batches
     *              no larger than one grain run serially on the caller.
     */
    void parallelFor(int n, const std::function<void(int)> &fn,
                     int grain = 0);

    int threads() const { return static_cast<int>(workers_.size()) + 1; }

  private:
    struct Batch;

    void workerLoop();
    /** Claim and execute one chunk of @p batch. Called under mutex_. */
    void runChunk(std::unique_lock<std::mutex> &lock, Batch &batch,
                  bool applySnapshot);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;

    /** Open batches, submission order (workers scan back to front). */
    std::vector<Batch *> batches_;
    bool stop_ = false;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_PARALLEL_H
