#ifndef HFPU_FPU_LUT_H
#define HFPU_FPU_LUT_H

/**
 * @file
 * The boot-time mantissa lookup table of Section 4.3.4: replaces the
 * memoization tables for operating precisions below six mantissa bits,
 * where the operand space is small enough to precompute every result.
 *
 * Structure (following the paper): 1-byte entries indexed by an op-type
 * bit plus the concatenation of two 5-bit operand fields. For multiply
 * the fields are the reduced mantissas of the operands. For add, the
 * smaller operand's 6-bit significand (implicit one made visible) is
 * first shifted right by the exponent difference through a small
 * shifter -- dropping shifted-out bits -- and the field is the 5-bit
 * window below the binary point; each add entry carries an extra bit
 * that flags a carry-out requiring an exponent increment. The
 * equal-exponent corner case is detected by the exponent logic and
 * handled with a direct 5-bit significand add (no table access
 * needed).
 *
 * Deviation from the paper (documented in DESIGN.md): the paper's
 * 11-bit index distinguishes only add vs mult. Effective subtractions
 * (differing operand signs) need distinct entries storing a
 * normalization shift count, so this model adds a third 1K-entry bank
 * for them (3 KB of scratchpad instead of 2 KB). Construct with
 * sub_bank = false for the paper-literal structure, in which effective
 * subtractions fall through to the next service level.
 */

#include <array>
#include <cstdint>

#include "fp/types.h"

namespace hfpu {
namespace fpu {

/**
 * Function-accurate model of the 2K-entry (3K with the subtract bank)
 * mantissa lookup table.
 */
class LookupTable
{
  public:
    /** Operand field width; the table serves precisions < 6 bits. */
    static constexpr int kOperandBits = 5;
    /** Entries per bank (2^(2*kOperandBits)). */
    static constexpr int kBankEntries = 1 << (2 * kOperandBits);
    /** Maximum mantissa width the table can serve. */
    static constexpr int kMaxPrecision = 5;

    /**
     * Populate the banks at "boot time" from exact arithmetic rounded
     * with @p mode.
     *
     * @param mode     rounding mode used to populate entries.
     * @param sub_bank model the extra effective-subtraction bank.
     */
    explicit LookupTable(fp::RoundingMode mode, bool sub_bank = true);

    /** True if the op/precision pair is ever sent to the table. */
    static bool serviceable(fp::Opcode op, int mantissa_bits);

    /**
     * Model one hardware lookup. Requires serviceable(); returns false
     * when the operands fall outside the modeled domain (specials,
     * denormals, result exponent out of range, or effective subtraction
     * without the subtract bank) and the op must use the next service
     * level.
     *
     * @param[out] out the table-produced result bit pattern.
     */
    bool lookup(fp::Opcode op, uint32_t a, uint32_t b,
                uint32_t &out) const;

    /** @name Raw bank access for tests. */
    /** @{ */
    uint8_t addEntry(int index) const { return add_[index]; }
    uint8_t subEntry(int index) const { return sub_[index]; }
    uint8_t mulEntry(int index) const { return mul_[index]; }
    /** @} */

    bool hasSubBank() const { return subBank_; }
    fp::RoundingMode roundingMode() const { return mode_; }

  private:
    /** Round a fraction of @p frac_bits bits down to 5 bits; returns
     *  the rounded 5-bit fraction, setting @p carry on overflow. */
    uint32_t roundFraction(uint32_t frac, int frac_bits,
                           bool &carry) const;

    std::array<uint8_t, kBankEntries> add_;
    std::array<uint8_t, kBankEntries> sub_;
    std::array<uint8_t, kBankEntries> mul_;
    fp::RoundingMode mode_;
    bool subBank_;
};

} // namespace fpu
} // namespace hfpu

#endif // HFPU_FPU_LUT_H
