#include "arch/isa.hpp"

#include <iterator>

#include "common/log.hpp"

namespace aw {

namespace {

/** Indexed by OpClass. */
constexpr const char *kOpClassTokens[] = {
    "iadd", "imul", "imad", "ilogic",
    "fadd", "fmul", "ffma",
    "dadd", "dmul", "dfma",
    "sqrt", "log", "sin", "exp",
    "tensor", "tex",
    "ldg", "stg", "lds", "sts", "ldc",
    "bra", "bar", "mov", "nop", "nanosleep", "exit",
};
static_assert(std::size(kOpClassTokens) == kNumOpClasses,
              "every op class needs a token");

} // namespace

const char *
opClassToken(OpClass c)
{
    size_t i = static_cast<size_t>(c);
    AW_ASSERT(i < kNumOpClasses);
    return kOpClassTokens[i];
}

bool
opClassFromToken(std::string_view token, OpClass &out)
{
    for (size_t i = 0; i < kNumOpClasses; ++i)
        if (token == kOpClassTokens[i]) {
            out = static_cast<OpClass>(i);
            return true;
        }
    return false;
}

const std::string &
sassOpName(SassOp op)
{
    static const std::string names[] = {
        "IADD3", "IMAD", "IMUL", "ISETP", "LOP3", "SHF", "MOV",
        "FADD", "FMUL", "FFMA", "FSETP",
        "DADD", "DMUL", "DFMA",
        "MUFU.SQRT", "MUFU.LG2", "MUFU.SIN", "MUFU.EX2",
        "HMMA", "TEX",
        "LDG", "STG", "LDS", "STS", "LDC",
        "BRA", "BAR", "NOP", "NANOSLEEP", "EXIT",
    };
    size_t i = static_cast<size_t>(op);
    AW_ASSERT(i < static_cast<size_t>(SassOp::NumOps));
    return names[i];
}

const std::string &
ptxOpName(PtxOp op)
{
    static const std::string names[] = {
        "add.s32", "mad.lo.s32", "mul.lo.s32", "setp.s32", "and.b32",
        "shl.b32", "mov.b32",
        "add.f32", "mul.f32", "fma.rn.f32", "setp.f32",
        "add.f64", "mul.f64", "fma.rn.f64",
        "sqrt.approx.f32", "lg2.approx.f32", "sin.approx.f32",
        "ex2.approx.f32",
        "wmma.mma", "tex.2d",
        "ld.global", "st.global", "ld.shared", "st.shared", "ld.const",
        "bra", "bar.sync", "nop", "nanosleep", "ret",
    };
    size_t i = static_cast<size_t>(op);
    AW_ASSERT(i < static_cast<size_t>(PtxOp::NumOps));
    return names[i];
}

OpClass
sassOpClass(SassOp op)
{
    switch (op) {
      case SassOp::IADD3:      return OpClass::IntAdd;
      case SassOp::IMAD:       return OpClass::IntMad;
      case SassOp::IMUL:       return OpClass::IntMul;
      case SassOp::ISETP:      return OpClass::IntAdd;
      case SassOp::LOP3:       return OpClass::IntLogic;
      case SassOp::SHF:        return OpClass::IntLogic;
      case SassOp::MOV:        return OpClass::Mov;
      case SassOp::FADD:       return OpClass::FpAdd;
      case SassOp::FMUL:       return OpClass::FpMul;
      case SassOp::FFMA:       return OpClass::FpFma;
      case SassOp::FSETP:      return OpClass::FpAdd;
      case SassOp::DADD:       return OpClass::DpAdd;
      case SassOp::DMUL:       return OpClass::DpMul;
      case SassOp::DFMA:       return OpClass::DpFma;
      case SassOp::MUFU_SQRT:  return OpClass::Sqrt;
      case SassOp::MUFU_LG2:   return OpClass::Log;
      case SassOp::MUFU_SIN:   return OpClass::Sin;
      case SassOp::MUFU_EX2:   return OpClass::Exp;
      case SassOp::HMMA:       return OpClass::Tensor;
      case SassOp::TEX:        return OpClass::Tex;
      case SassOp::LDG:        return OpClass::LdGlobal;
      case SassOp::STG:        return OpClass::StGlobal;
      case SassOp::LDS:        return OpClass::LdShared;
      case SassOp::STS:        return OpClass::StShared;
      case SassOp::LDC:        return OpClass::LdConst;
      case SassOp::BRA:        return OpClass::Branch;
      case SassOp::BAR:        return OpClass::Bar;
      case SassOp::NOP:        return OpClass::Nop;
      case SassOp::NANOSLEEP:  return OpClass::NanoSleep;
      case SassOp::EXIT:       return OpClass::Exit;
      default: panic("sassOpClass: bad opcode %d", static_cast<int>(op));
    }
}

OpClass
ptxOpClass(PtxOp op)
{
    switch (op) {
      case PtxOp::ADD_S32:     return OpClass::IntAdd;
      case PtxOp::MAD_LO_S32:  return OpClass::IntMad;
      case PtxOp::MUL_LO_S32:  return OpClass::IntMul;
      case PtxOp::SETP_S32:    return OpClass::IntAdd;
      case PtxOp::AND_B32:     return OpClass::IntLogic;
      case PtxOp::SHL_B32:     return OpClass::IntLogic;
      case PtxOp::MOV_B32:     return OpClass::Mov;
      case PtxOp::ADD_F32:     return OpClass::FpAdd;
      case PtxOp::MUL_F32:     return OpClass::FpMul;
      case PtxOp::FMA_F32:     return OpClass::FpFma;
      case PtxOp::SETP_F32:    return OpClass::FpAdd;
      case PtxOp::ADD_F64:     return OpClass::DpAdd;
      case PtxOp::MUL_F64:     return OpClass::DpMul;
      case PtxOp::FMA_F64:     return OpClass::DpFma;
      case PtxOp::SQRT_F32:    return OpClass::Sqrt;
      case PtxOp::LG2_F32:     return OpClass::Log;
      case PtxOp::SIN_F32:     return OpClass::Sin;
      case PtxOp::EX2_F32:     return OpClass::Exp;
      case PtxOp::WMMA_MMA:    return OpClass::Tensor;
      case PtxOp::TEX_2D:      return OpClass::Tex;
      case PtxOp::LD_GLOBAL:   return OpClass::LdGlobal;
      case PtxOp::ST_GLOBAL:   return OpClass::StGlobal;
      case PtxOp::LD_SHARED:   return OpClass::LdShared;
      case PtxOp::ST_SHARED:   return OpClass::StShared;
      case PtxOp::LD_CONST:    return OpClass::LdConst;
      case PtxOp::BRA:         return OpClass::Branch;
      case PtxOp::BAR_SYNC:    return OpClass::Bar;
      case PtxOp::NOP:         return OpClass::Nop;
      case PtxOp::NANOSLEEP:   return OpClass::NanoSleep;
      case PtxOp::RET:         return OpClass::Exit;
      default: panic("ptxOpClass: bad opcode %d", static_cast<int>(op));
    }
}

SassOp
opClassToSass(OpClass c)
{
    switch (c) {
      case OpClass::IntAdd:    return SassOp::IADD3;
      case OpClass::IntMul:    return SassOp::IMUL;
      case OpClass::IntMad:    return SassOp::IMAD;
      case OpClass::IntLogic:  return SassOp::LOP3;
      case OpClass::FpAdd:     return SassOp::FADD;
      case OpClass::FpMul:     return SassOp::FMUL;
      case OpClass::FpFma:     return SassOp::FFMA;
      case OpClass::DpAdd:     return SassOp::DADD;
      case OpClass::DpMul:     return SassOp::DMUL;
      case OpClass::DpFma:     return SassOp::DFMA;
      case OpClass::Sqrt:      return SassOp::MUFU_SQRT;
      case OpClass::Log:       return SassOp::MUFU_LG2;
      case OpClass::Sin:       return SassOp::MUFU_SIN;
      case OpClass::Exp:       return SassOp::MUFU_EX2;
      case OpClass::Tensor:    return SassOp::HMMA;
      case OpClass::Tex:       return SassOp::TEX;
      case OpClass::LdGlobal:  return SassOp::LDG;
      case OpClass::StGlobal:  return SassOp::STG;
      case OpClass::LdShared:  return SassOp::LDS;
      case OpClass::StShared:  return SassOp::STS;
      case OpClass::LdConst:   return SassOp::LDC;
      case OpClass::Branch:    return SassOp::BRA;
      case OpClass::Bar:       return SassOp::BAR;
      case OpClass::Mov:       return SassOp::MOV;
      case OpClass::Nop:       return SassOp::NOP;
      case OpClass::NanoSleep: return SassOp::NANOSLEEP;
      case OpClass::Exit:      return SassOp::EXIT;
      default: panic("opClassToSass: bad class %d", static_cast<int>(c));
    }
}

PtxOp
opClassToPtx(OpClass c)
{
    switch (c) {
      case OpClass::IntAdd:    return PtxOp::ADD_S32;
      case OpClass::IntMul:    return PtxOp::MUL_LO_S32;
      case OpClass::IntMad:    return PtxOp::MAD_LO_S32;
      case OpClass::IntLogic:  return PtxOp::AND_B32;
      case OpClass::FpAdd:     return PtxOp::ADD_F32;
      case OpClass::FpMul:     return PtxOp::MUL_F32;
      case OpClass::FpFma:     return PtxOp::FMA_F32;
      case OpClass::DpAdd:     return PtxOp::ADD_F64;
      case OpClass::DpMul:     return PtxOp::MUL_F64;
      case OpClass::DpFma:     return PtxOp::FMA_F64;
      case OpClass::Sqrt:      return PtxOp::SQRT_F32;
      case OpClass::Log:       return PtxOp::LG2_F32;
      case OpClass::Sin:       return PtxOp::SIN_F32;
      case OpClass::Exp:       return PtxOp::EX2_F32;
      case OpClass::Tensor:    return PtxOp::WMMA_MMA;
      case OpClass::Tex:       return PtxOp::TEX_2D;
      case OpClass::LdGlobal:  return PtxOp::LD_GLOBAL;
      case OpClass::StGlobal:  return PtxOp::ST_GLOBAL;
      case OpClass::LdShared:  return PtxOp::LD_SHARED;
      case OpClass::StShared:  return PtxOp::ST_SHARED;
      case OpClass::LdConst:   return PtxOp::LD_CONST;
      case OpClass::Branch:    return PtxOp::BRA;
      case OpClass::Bar:       return PtxOp::BAR_SYNC;
      case OpClass::Mov:       return PtxOp::MOV_B32;
      case OpClass::Nop:       return PtxOp::NOP;
      case OpClass::NanoSleep: return PtxOp::NANOSLEEP;
      case OpClass::Exit:      return PtxOp::RET;
      default: panic("opClassToPtx: bad class %d", static_cast<int>(c));
    }
}

ExecUnit
opClassUnit(OpClass c)
{
    switch (c) {
      case OpClass::IntAdd:
      case OpClass::IntMul:
      case OpClass::IntMad:
      case OpClass::IntLogic:
      case OpClass::Mov:
        return ExecUnit::Int32;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpFma:
        return ExecUnit::Fp32;
      case OpClass::DpAdd:
      case OpClass::DpMul:
      case OpClass::DpFma:
        return ExecUnit::Fp64;
      case OpClass::Sqrt:
      case OpClass::Log:
      case OpClass::Sin:
      case OpClass::Exp:
        return ExecUnit::Sfu;
      case OpClass::Tensor:
        return ExecUnit::Tensor;
      case OpClass::Tex:
        return ExecUnit::Tex;
      case OpClass::LdGlobal:
      case OpClass::StGlobal:
      case OpClass::LdShared:
      case OpClass::StShared:
      case OpClass::LdConst:
        return ExecUnit::LdSt;
      default:
        return ExecUnit::None;
    }
}

PowerComponent
opClassPowerComponent(OpClass c)
{
    switch (c) {
      case OpClass::IntAdd:
      case OpClass::IntLogic:
      case OpClass::Mov:
        return PowerComponent::IntAdd;
      case OpClass::IntMul:
      case OpClass::IntMad:
        return PowerComponent::IntMul;
      case OpClass::FpAdd:     return PowerComponent::FpAdd;
      case OpClass::FpMul:
      case OpClass::FpFma:     return PowerComponent::FpMul;
      case OpClass::DpAdd:     return PowerComponent::DpAdd;
      case OpClass::DpMul:
      case OpClass::DpFma:     return PowerComponent::DpMul;
      case OpClass::Sqrt:      return PowerComponent::Sqrt;
      case OpClass::Log:       return PowerComponent::Log;
      case OpClass::Sin:       return PowerComponent::SinCos;
      case OpClass::Exp:       return PowerComponent::Exp;
      case OpClass::Tensor:    return PowerComponent::TensorCore;
      case OpClass::Tex:       return PowerComponent::TextureUnit;
      case OpClass::LdGlobal:
      case OpClass::StGlobal:  return PowerComponent::L1DCache;
      case OpClass::LdShared:
      case OpClass::StShared:  return PowerComponent::SharedMem;
      case OpClass::LdConst:   return PowerComponent::ConstCache;
      default:                 return PowerComponent::SmPipeline;
    }
}

UnitKind
opClassUnitKind(OpClass c)
{
    switch (opClassUnit(c)) {
      case ExecUnit::Int32:  return UnitKind::Int;
      case ExecUnit::Fp32:   return UnitKind::Fp;
      case ExecUnit::Fp64:   return UnitKind::Dp;
      case ExecUnit::Sfu:    return UnitKind::Sfu;
      case ExecUnit::Tensor: return UnitKind::Tensor;
      case ExecUnit::Tex:    return UnitKind::Tex;
      case ExecUnit::LdSt:   return UnitKind::Mem;
      default:               return UnitKind::Light;
    }
}

bool
isMemoryOp(OpClass c)
{
    return opClassUnit(c) == ExecUnit::LdSt;
}

} // namespace aw
