#include "memo.h"

#include <cassert>

#include "fp/rounding.h"

namespace hfpu {
namespace fpu {

using namespace fp;

MemoTable::MemoTable(int entries, int ways, int fuzzy_bits)
    : ways_(ways), sets_(entries / ways), fuzzyBits_(fuzzy_bits)
{
    assert(entries > 0 && ways > 0 && entries % ways == 0);
    table_.resize(static_cast<size_t>(sets_) * ways_);
}

uint32_t
MemoTable::tagOf(uint32_t bits) const
{
    if (fuzzyBits_ >= kFullMantissaBits)
        return bits;
    return reduceMantissa(bits, fuzzyBits_,
                          RoundingMode::RoundToNearest);
}

int
MemoTable::setIndex(uint32_t a, uint32_t b) const
{
    // XOR of the most significant mantissa bits of the operands.
    int bits = 0;
    int s = sets_;
    while (s > 1) {
        ++bits;
        s >>= 1;
    }
    const uint32_t ma = fractionOf(a) >> (kFullMantissaBits - bits);
    const uint32_t mb = fractionOf(b) >> (kFullMantissaBits - bits);
    return static_cast<int>((ma ^ mb) & (static_cast<uint32_t>(sets_) - 1));
}

std::optional<uint32_t>
MemoTable::lookup(uint32_t a, uint32_t b)
{
    ++lookups_;
    a = tagOf(a);
    b = tagOf(b);
    const int set = setIndex(a, b);
    Entry *row = &table_[static_cast<size_t>(set) * ways_];
    for (int w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].a == a && row[w].b == b) {
            ++hits_;
            row[w].lastUse = ++useClock_;
            return row[w].result;
        }
    }
    return std::nullopt;
}

void
MemoTable::insert(uint32_t a, uint32_t b, uint32_t result)
{
    a = tagOf(a);
    b = tagOf(b);
    const int set = setIndex(a, b);
    Entry *row = &table_[static_cast<size_t>(set) * ways_];
    Entry *victim = &row[0];
    for (int w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].a == a && row[w].b == b) {
            victim = &row[w]; // refresh in place
            break;
        }
        if (!row[w].valid) {
            victim = &row[w];
            break;
        }
        if (row[w].lastUse < victim->lastUse)
            victim = &row[w];
    }
    victim->valid = true;
    victim->a = a;
    victim->b = b;
    victim->result = result;
    victim->lastUse = ++useClock_;
}

void
MemoTable::reset()
{
    for (Entry &e : table_)
        e = Entry{};
    lookups_ = hits_ = useClock_ = 0;
}

MemoUnit::MemoUnit(int entries, int ways, int fuzzy_bits)
    : add_(entries, ways, fuzzy_bits), mul_(entries, ways, fuzzy_bits)
{
}

MemoTable *
MemoUnit::tableFor(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
        return &add_;
      case Opcode::Mul:
        return &mul_;
      default:
        return nullptr;
    }
}

const MemoTable *
MemoUnit::tableFor(Opcode op) const
{
    return const_cast<MemoUnit *>(this)->tableFor(op);
}

bool
MemoUnit::access(Opcode op, uint32_t a, uint32_t b, uint32_t result)
{
    MemoTable *table = tableFor(op);
    if (table == nullptr)
        return false;
    if (table->lookup(a, b).has_value())
        return true;
    table->insert(a, b, result);
    return false;
}

void
MemoUnit::reset()
{
    add_.reset();
    mul_.reset();
}

} // namespace fpu
} // namespace hfpu
