/**
 * @file
 * The row store: every encoded Document, in oid order (DESIGN.md §16).
 *
 * DataSet::docs is one DocStore.  Documents that arrive while queries
 * run land here only, never in the sealed partitions: the engine's
 * INSERT delta is the suffix past the base database's docCount(), and
 * every cut (query snapshot, fold, checkpoint) is a document count n
 * naming the prefix [0, n).  No cut copies a document.
 *
 * Concurrency: push_back() is single-writer (DataSet::addFlat holds
 * its lock); readers take no lock.  A reader acquire-loads size() once
 * and may then read every row below it.  Chunk c holds kChunkRows << c
 * rows and is reserved to that capacity when made, so a published row
 * never moves, the directory of atomic chunk pointers never fills, and
 * the last chunk wastes at most what a doubling vector would.
 *
 * Row i holds oid i (push_back checks it), so every row past a cut
 * sorts after every row before it: the executor's sorted-oid merge
 * scans treat the delta as a suffix.
 */

#ifndef DVP_STORAGE_DOC_STORE_HH
#define DVP_STORAGE_DOC_STORE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/encoder.hh"

namespace dvp::storage
{

/** Append-only, oid-ordered document rows; see the file comment. */
class DocStore
{
  public:
    /** Rows in chunk 0; chunk c holds kChunkRows << c rows. */
    static constexpr size_t kChunkRows = 1024;

    DocStore() = default;
    ~DocStore();

    DocStore(const DocStore &) = delete;
    DocStore &operator=(const DocStore &) = delete;

    /** Moves hand over every chunk; only legal with no readers. */
    DocStore(DocStore &&o) noexcept { *this = std::move(o); }
    DocStore &operator=(DocStore &&o) noexcept;

    /**
     * Rows appended so far (acquire).  A reader that loads size() == n
     * may freely read rows [0, n) with no further synchronization.
     */
    size_t size() const { return size_.load(std::memory_order_acquire); }
    bool empty() const { return size() == 0; }

    /** Row @p i (must be < a previously loaded size()). */
    const Document &operator[](size_t i) const;
    const Document &back() const { return (*this)[size() - 1]; }

    /**
     * Approximate heap bytes held by rows [@p from, @p to) — O(1), from
     * a running sum kept per row.  Feeds the delta-bytes gauges.
     */
    uint64_t bytes(size_t from, size_t to) const;

    /** Append @p doc; its oid must equal size().  Single writer. */
    void push_back(Document &&doc);

    /** Range-for over rows [0, size() at end()). */
    struct const_iterator
    {
        const DocStore *store;
        size_t i;
        const Document &operator*() const { return (*store)[i]; }
        const_iterator &operator++() { return ++i, *this; }
        bool operator==(const const_iterator &) const = default;
    };
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    struct Chunk
    {
        std::vector<Document> rows; ///< reserved to the chunk capacity
        std::vector<uint64_t> ends; ///< bytes of rows [0, row + 1)
    };

    /** Directory slots: 1024 * (2^48 - 1) rows, past any real count. */
    static constexpr size_t kChunks = 48;

    /** Chunk index and offset of row @p i. */
    static void locate(size_t i, size_t &chunk, size_t &off);

    std::array<std::atomic<Chunk *>, kChunks> dir_{};
    std::atomic<size_t> size_{0};
};

} // namespace dvp::storage

#endif // DVP_STORAGE_DOC_STORE_HH
