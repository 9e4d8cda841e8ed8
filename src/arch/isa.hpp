/**
 * @file
 * Instruction-set definitions for the two ISA levels AccelWattch models:
 * SASS (the native machine ISA, captured from silicon traces) and PTX
 * (the virtual ISA used by emulation-driven simulation). Both map into a
 * shared execution-semantics OpClass, and from there to the execution
 * unit that runs the instruction and the Table 1 power component that
 * its energy is accounted to ("FADD" -> FPU_add, "mul.f64" -> DPU_mul).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "arch/power_components.hpp"

namespace aw {

/** Architecture-neutral instruction classes. */
enum class OpClass : uint8_t
{
    IntAdd,   ///< integer add/sub/compare
    IntMul,   ///< integer multiply
    IntMad,   ///< integer multiply-add
    IntLogic, ///< bitwise logic and shifts (ALU path)
    FpAdd,    ///< FP32 add
    FpMul,    ///< FP32 mul
    FpFma,    ///< FP32 fused multiply-add
    DpAdd,    ///< FP64 add
    DpMul,    ///< FP64 mul
    DpFma,    ///< FP64 fused multiply-add
    Sqrt,     ///< SFU square root
    Log,      ///< SFU base-2 logarithm
    Sin,      ///< SFU sine/cosine
    Exp,      ///< SFU base-2 exponential
    Tensor,   ///< tensor-core matrix multiply-accumulate
    Tex,      ///< texture fetch
    LdGlobal, ///< global load
    StGlobal, ///< global store
    LdShared, ///< shared-memory load
    StShared, ///< shared-memory store
    LdConst,  ///< constant-cache load
    Branch,   ///< control flow
    Bar,      ///< barrier
    Mov,      ///< register move (ALU path)
    Nop,      ///< no-op
    NanoSleep,///< nanosleep (light, occupies scheduler only)
    Exit,     ///< kernel exit

    NumOpClasses
};

constexpr size_t kNumOpClasses = static_cast<size_t>(OpClass::NumOpClasses);

/** Execution unit kinds within an SM processing block. */
enum class ExecUnit : uint8_t
{
    Int32,  ///< 16 INT32 cores per processing block
    Fp32,   ///< 16 FP32 cores
    Fp64,   ///< 8 FP64 cores
    Sfu,    ///< 1 special function unit
    Tensor, ///< 2 tensor cores
    Tex,    ///< texture unit (SM-level)
    LdSt,   ///< 8 load/store units
    None,   ///< issue-only (branch, barrier, nop, nanosleep)

    NumUnits
};

constexpr size_t kNumExecUnits = static_cast<size_t>(ExecUnit::NumUnits);

/**
 * Coarse unit families used to classify a kernel's instruction mix into
 * the 9 categories of Section 4.5 (they decide which divergence model,
 * half-warp or linear, applies).
 */
enum class UnitKind : uint8_t
{
    Int, Fp, Dp, Sfu, Tensor, Tex, Mem, Light,
    NumKinds
};

constexpr size_t kNumUnitKinds = static_cast<size_t>(UnitKind::NumKinds);

/** SASS opcodes we model (a representative Volta subset). */
enum class SassOp : uint8_t
{
    IADD3, IMAD, IMUL, ISETP, LOP3, SHF, MOV,
    FADD, FMUL, FFMA, FSETP,
    DADD, DMUL, DFMA,
    MUFU_SQRT, MUFU_LG2, MUFU_SIN, MUFU_EX2,
    HMMA, TEX,
    LDG, STG, LDS, STS, LDC,
    BRA, BAR, NOP, NANOSLEEP, EXIT,
    NumOps
};

/** PTX opcodes we model (the matching virtual-ISA subset). */
enum class PtxOp : uint8_t
{
    ADD_S32, MAD_LO_S32, MUL_LO_S32, SETP_S32, AND_B32, SHL_B32, MOV_B32,
    ADD_F32, MUL_F32, FMA_F32, SETP_F32,
    ADD_F64, MUL_F64, FMA_F64,
    SQRT_F32, LG2_F32, SIN_F32, EX2_F32,
    WMMA_MMA, TEX_2D,
    LD_GLOBAL, ST_GLOBAL, LD_SHARED, ST_SHARED, LD_CONST,
    BRA, BAR_SYNC, NOP, NANOSLEEP, RET,
    NumOps
};

/**
 * Short lower-case token of an op class ("ffma", "ldg", "bar"): the
 * grammar of the CLI's --mix flag and of an awd request's kernel mix.
 * Every class has one.
 */
const char *opClassToken(OpClass c);

/** Inverse of opClassToken; false for a token no class has. */
bool opClassFromToken(std::string_view token, OpClass &out);

/** SASS mnemonic, e.g. "IADD3". */
const std::string &sassOpName(SassOp op);

/** PTX mnemonic, e.g. "add.s32". */
const std::string &ptxOpName(PtxOp op);

/** Execution semantics of a SASS opcode. */
OpClass sassOpClass(SassOp op);

/** Execution semantics of a PTX opcode. */
OpClass ptxOpClass(PtxOp op);

/** SASS opcode implementing an OpClass (inverse of sassOpClass). */
SassOp opClassToSass(OpClass c);

/** PTX opcode implementing an OpClass (inverse of ptxOpClass). */
PtxOp opClassToPtx(OpClass c);

/** The execution unit that runs this class. */
ExecUnit opClassUnit(OpClass c);

/**
 * The Table 1 power component that this class's execution energy is
 * accounted to. Memory classes return the first-level structure they
 * touch (L1D/SHMEM/CC); misses add L2+NOC / DRAM+MC activity downstream.
 * Issue-only classes (branch, nop, ...) return SmPipeline.
 */
PowerComponent opClassPowerComponent(OpClass c);

/** Unit family for the instruction-mix categories of Section 4.5. */
UnitKind opClassUnitKind(OpClass c);

/** True for loads/stores of any space. */
bool isMemoryOp(OpClass c);

} // namespace aw
