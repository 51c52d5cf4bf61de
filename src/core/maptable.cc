#include "core/maptable.hh"

#include "common/log.hh"
#include "fault/fault.hh"

namespace nvmr
{

MapTable::MapTable(uint32_t capacity, const TechParams &params,
                   EnergySink &snk)
    : cap(capacity), tech(params), sink(snk)
{
    fatal_if(capacity == 0, "map table needs at least one entry");
}

std::optional<Addr>
MapTable::lookup(Addr tag)
{
    // An entry read: tag + mapping words.
    sink.chargeWords(1, 2 * tech.flashReadCycles,
                     2 * tech.flashReadWordNj, true);
    Entry *e = map.find(tag);
    if (!e)
        return std::nullopt;
    e->lastUse = ++tick;
    return e->mapping;
}

void
MapTable::set(Addr tag, Addr mapping)
{
    // One persist boundary for the whole entry: the valid bit flips
    // last, so a crash here leaves the previous entry readable.
    if (faults && faults->enabled())
        faults->persistPoint();
    if (txnActive)
        recordUndo(tag);
    sink.chargeWords(1, 2 * tech.flashWriteCycles,
                     2 * tech.flashWriteWordNj, true);
    panic_if(!map.contains(tag) && map.size() >= cap,
             "map table overflow");
    map.set(tag, Entry{mapping, ++tick});
}

void
MapTable::erase(Addr tag)
{
    if (faults && faults->enabled())
        faults->persistPoint();
    if (txnActive)
        recordUndo(tag);
    sink.chargeWords(1, tech.flashWriteCycles, tech.flashWriteWordNj,
                     true);
    map.erase(tag);
}

void
MapTable::recordUndo(Addr tag)
{
    if (undoLog.contains(tag))
        return; // first touch wins
    const Entry *e = map.find(tag);
    undoLog.set(tag, e ? std::optional<Entry>(*e) : std::nullopt);
}

void
MapTable::beginTxn()
{
    txnActive = true;
    undoLog.clear();
}

void
MapTable::commitTxn()
{
    txnActive = false;
    undoLog.clear();
}

void
MapTable::rollbackTxn()
{
    undoLog.forEach([&](Addr tag, const std::optional<Entry> &prior) {
        if (prior)
            map.set(tag, *prior);
        else
            map.erase(tag);
    });
    undoLog.clear();
    txnActive = false;
}

bool
MapTable::hasRoomFor(Addr tag) const
{
    return map.size() < cap || map.contains(tag);
}

std::optional<std::pair<Addr, Addr>>
MapTable::lruEntry() const
{
    // Recency ticks are unique, so the minimum does not depend on
    // the visiting order.
    std::optional<std::pair<Addr, Addr>> lru;
    uint64_t oldest = 0;
    map.forEach([&](Addr tag, const Entry &e) {
        if (!lru || e.lastUse < oldest) {
            lru = std::make_pair(tag, e.mapping);
            oldest = e.lastUse;
        }
    });
    return lru;
}

std::optional<Addr>
MapTable::peek(Addr tag) const
{
    const Entry *e = map.find(tag);
    if (!e)
        return std::nullopt;
    return e->mapping;
}

} // namespace nvmr
