#include "storage/doc_store.hh"

#include <bit>

#include "util/logging.hh"

namespace dvp::storage
{

DocStore::~DocStore()
{
    for (auto &c : dir_)
        delete c.load(std::memory_order_relaxed);
}

DocStore &
DocStore::operator=(DocStore &&o) noexcept
{
    if (this == &o)
        return *this;
    for (size_t c = 0; c < kChunks; ++c)
        delete dir_[c].exchange(
            o.dir_[c].exchange(nullptr, std::memory_order_relaxed),
            std::memory_order_relaxed);
    size_.store(o.size_.exchange(0, std::memory_order_relaxed),
                std::memory_order_release);
    return *this;
}

void
DocStore::locate(size_t i, size_t &chunk, size_t &off)
{
    // Chunk c starts at row kChunkRows * (2^c - 1).
    chunk = std::bit_width(i / kChunkRows + 1) - 1;
    off = i - kChunkRows * ((size_t{1} << chunk) - 1);
}

const Document &
DocStore::operator[](size_t i) const
{
    size_t c, off;
    locate(i, c, off);
    const Chunk *ch = dir_[c].load(std::memory_order_acquire);
    invariant(ch != nullptr, "DocStore row past the published size");
    return ch->rows[off];
}

uint64_t
DocStore::bytes(size_t from, size_t to) const
{
    auto before = [this](size_t i) -> uint64_t {
        if (i == 0)
            return 0;
        size_t c, off;
        locate(i - 1, c, off);
        return dir_[c].load(std::memory_order_acquire)->ends[off];
    };
    return to > from ? before(to) - before(from) : 0;
}

void
DocStore::push_back(Document &&doc)
{
    size_t i = size_.load(std::memory_order_relaxed);
    invariant(doc.oid == static_cast<int64_t>(i),
              "DocStore::push_back oid out of sequence");
    uint64_t prior = bytes(0, i);

    size_t c, off;
    locate(i, c, off);
    invariant(c < kChunks, "DocStore full");
    Chunk *ch = dir_[c].load(std::memory_order_relaxed);
    if (ch == nullptr) {
        ch = new Chunk();
        ch->rows.reserve(kChunkRows << c); // addresses stay stable
        ch->ends.reserve(kChunkRows << c);
        dir_[c].store(ch, std::memory_order_release);
    }
    uint64_t row_bytes =
        sizeof(Document) +
        doc.attrs.size() * sizeof(std::pair<AttrId, Slot>);
    ch->rows.push_back(std::move(doc)); // never reallocates
    ch->ends.push_back(prior + row_bytes);
    size_.store(i + 1, std::memory_order_release);
}

} // namespace dvp::storage
