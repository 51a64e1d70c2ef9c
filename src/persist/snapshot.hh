/**
 * @file
 * Snapshot persistence: serialize a DataSet (catalog + dictionary +
 * documents) and optionally a Layout to a compact binary image, and
 * load it back.  A restored DataSet is bit-identical for query
 * purposes: attribute ids, dictionary ids and document slots are all
 * preserved, so saved layouts remain valid and result sets match.
 *
 * Format (little-endian, versioned).  Rev 2, the only rev written or
 * read:
 *
 *   magic "DVPSNAP2" | u32 flags
 *   meta    : u64 epoch | u64 baseDocs | u64 walLsn
 *   catalog : u32 n | n x { str name, u8 type, u64 nonNullDocs }
 *             u64 docCount
 *   dict    : u32 n | n x str
 *   docs    : u64 n | n x { i64 oid, u32 k, k x { u32 attr, i64 slot } }
 *   layout  : u32 present | u32 p | p x { u32 k, k x u32 attr }
 *   u32 CRC-32 of every preceding byte
 *
 * The meta block is what lets a durability checkpoint cut round-trip
 * exactly:
 * baseDocs marks where the folded base ends and the unfolded INSERT
 * delta begins inside docs, epoch is the layout epoch at the cut, and
 * walLsn is the last WAL record folded into the image.
 *
 * Strings are u32 length + bytes.  The writer buffers the whole image
 * and writes once; the reader validates sizes and fails cleanly on
 * truncated or corrupt input (never panics on bad files — user data).
 * save() replaces the target atomically (temp file + rename), so a
 * crash mid-save can no longer destroy the previous snapshot.
 */

#ifndef DVP_PERSIST_SNAPSHOT_HH
#define DVP_PERSIST_SNAPSHOT_HH

#include <optional>
#include <string>

#include "engine/database.hh"
#include "layout/layout.hh"

namespace dvp::persist
{

/** Durability metadata carried by every image (see file comment). */
struct SnapshotMeta
{
    uint64_t epoch = 0;    ///< layout epoch at the cut
    uint64_t baseDocs = 0; ///< docs[0, baseDocs) are the folded base
    uint64_t walLsn = 0;   ///< last WAL LSN folded into this image
};

/** Why a load failed. */
enum class LoadError : uint8_t
{
    None,               ///< loaded
    Io,                 ///< the file could not be opened
    BadMagic,           ///< not a DVP snapshot at all
    UnsupportedVersion, ///< a DVP snapshot of another rev ("DVPSNAP1")
    Corrupt,            ///< CRC mismatch, truncation or bad structure
};

/** Outcome of a load. */
struct LoadResult
{
    bool ok = false;
    LoadError code = LoadError::None;
    std::string error;

    engine::DataSet data;
    /** Saved layout, when the image contained one. */
    std::optional<layout::Layout> layout;
    SnapshotMeta meta;
};

/**
 * Serialize @p catalog, @p dict, the documents @p docs[0, @p ndocs)
 * (and @p layout if non-null) into a byte string.  @p meta fills the
 * meta block; null writes an all-zero block.
 */
std::string serialize(const storage::Catalog &catalog,
                      const storage::Dictionary &dict,
                      const storage::DocStore &docs, size_t ndocs,
                      const layout::Layout *layout = nullptr,
                      const SnapshotMeta *meta = nullptr);

/** serialize() of all of @p data. */
inline std::string
serialize(const engine::DataSet &data,
          const layout::Layout *layout = nullptr,
          const SnapshotMeta *meta = nullptr)
{
    return serialize(data.catalog, data.dict, data.docs,
                     data.docs.size(), layout, meta);
}

/** Parse an image produced by serialize(). */
LoadResult deserialize(const std::string &bytes);

/**
 * Write a snapshot to @p path via temp-file + rename (the old file
 * survives a crash mid-save) and fsync.
 * @return empty string on success, error message otherwise.
 */
std::string save(const std::string &path, const engine::DataSet &data,
                 const layout::Layout *layout = nullptr,
                 const SnapshotMeta *meta = nullptr);

/** Read a snapshot from @p path. */
LoadResult load(const std::string &path);

} // namespace dvp::persist

#endif // DVP_PERSIST_SNAPSHOT_HH
