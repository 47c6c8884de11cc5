#include "playground/svm.hpp"

namespace snipe::playground {

const char* vm_status_name(VmStatus s) {
  switch (s) {
    case VmStatus::ready: return "ready";
    case VmStatus::running: return "running";
    case VmStatus::blocked: return "blocked";
    case VmStatus::checkpoint: return "checkpoint";
    case VmStatus::halted: return "halted";
    case VmStatus::trapped: return "trapped";
    case VmStatus::quota: return "quota";
  }
  return "unknown";
}

Vm::Vm(Program program, VmQuota quota) : program_(std::move(program)), quota_(quota) {
  globals_.assign(static_cast<std::size_t>(program_.globals), 0);
}

VmStatus Vm::trap(std::string why) {
  status_ = VmStatus::trapped;
  fault_ = std::move(why);
  return status_;
}

VmStatus Vm::quota_fault(std::string why) {
  status_ = VmStatus::quota;
  fault_ = std::move(why);
  return status_;
}

void Vm::push_input(std::int64_t value) {
  input_.push_back(value);
  if (status_ == VmStatus::blocked) status_ = VmStatus::running;
}

std::vector<std::int64_t> Vm::drain_output() {
  std::vector<std::int64_t> out(output_.begin(), output_.end());
  output_.clear();
  return out;
}

void Vm::acknowledge_checkpoint() {
  if (status_ == VmStatus::checkpoint) status_ = VmStatus::running;
}

VmStatus Vm::run(std::uint64_t quantum) {
  if (status_ == VmStatus::halted || status_ == VmStatus::trapped ||
      status_ == VmStatus::quota || status_ == VmStatus::checkpoint)
    return status_;
  if (status_ == VmStatus::blocked && input_.empty()) return status_;
  status_ = VmStatus::running;

  auto pop2 = [this](std::int64_t& a, std::int64_t& b) {
    if (stack_.size() < 2) return false;
    b = stack_.back();
    stack_.pop_back();
    a = stack_.back();
    stack_.pop_back();
    return true;
  };

  for (std::uint64_t step = 0; step < quantum; ++step) {
    if (cycles_ >= quota_.max_cycles) return quota_fault("cycle budget exhausted");
    if (pc_ < 0 || pc_ >= static_cast<std::int64_t>(program_.code.size()))
      return trap("pc out of range: " + std::to_string(pc_));
    const Instruction ins = program_.code[static_cast<std::size_t>(pc_)];
    ++pc_;
    ++cycles_;

    switch (ins.op) {
      case OpCode::push:
        if (stack_.size() >= quota_.max_stack) return quota_fault("operand stack overflow");
        stack_.push_back(ins.imm);
        break;
      case OpCode::pop:
        if (stack_.empty()) return trap("pop on empty stack");
        stack_.pop_back();
        break;
      case OpCode::dup:
        if (stack_.empty()) return trap("dup on empty stack");
        if (stack_.size() >= quota_.max_stack) return quota_fault("operand stack overflow");
        stack_.push_back(stack_.back());
        break;
      case OpCode::swap: {
        if (stack_.size() < 2) return trap("swap needs two values");
        std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
        break;
      }
      case OpCode::add:
      case OpCode::sub:
      case OpCode::mul:
      case OpCode::divi:
      case OpCode::mod:
      case OpCode::eq:
      case OpCode::ne:
      case OpCode::lt:
      case OpCode::le:
      case OpCode::gt:
      case OpCode::ge:
      case OpCode::land:
      case OpCode::lor: {
        std::int64_t a, b;
        if (!pop2(a, b)) return trap("binary op needs two values");
        std::int64_t r = 0;
        switch (ins.op) {
          case OpCode::add: r = a + b; break;
          case OpCode::sub: r = a - b; break;
          case OpCode::mul: r = a * b; break;
          case OpCode::divi:
            if (b == 0) return trap("division by zero");
            r = a / b;
            break;
          case OpCode::mod:
            if (b == 0) return trap("modulo by zero");
            r = a % b;
            break;
          case OpCode::eq: r = a == b; break;
          case OpCode::ne: r = a != b; break;
          case OpCode::lt: r = a < b; break;
          case OpCode::le: r = a <= b; break;
          case OpCode::gt: r = a > b; break;
          case OpCode::ge: r = a >= b; break;
          case OpCode::land: r = (a != 0) && (b != 0); break;
          case OpCode::lor: r = (a != 0) || (b != 0); break;
          default: break;
        }
        stack_.push_back(r);
        break;
      }
      case OpCode::neg:
        if (stack_.empty()) return trap("neg on empty stack");
        stack_.back() = -stack_.back();
        break;
      case OpCode::lnot:
        if (stack_.empty()) return trap("not on empty stack");
        stack_.back() = stack_.back() == 0;
        break;
      case OpCode::loadl: {
        if (frames_.empty()) return trap("loadl outside a function");
        auto& locals = frames_.back().locals;
        if (ins.imm < 0 || ins.imm >= static_cast<std::int64_t>(locals.size()))
          return trap("local index out of range");
        stack_.push_back(locals[static_cast<std::size_t>(ins.imm)]);
        break;
      }
      case OpCode::storel: {
        if (frames_.empty()) return trap("storel outside a function");
        if (stack_.empty()) return trap("storel on empty stack");
        auto& locals = frames_.back().locals;
        if (ins.imm < 0) return trap("local index out of range");
        if (ins.imm >= static_cast<std::int64_t>(locals.size()))
          locals.resize(static_cast<std::size_t>(ins.imm) + 1, 0);
        locals[static_cast<std::size_t>(ins.imm)] = stack_.back();
        stack_.pop_back();
        break;
      }
      case OpCode::loadg:
        if (ins.imm < 0 || ins.imm >= static_cast<std::int64_t>(globals_.size()))
          return trap("global index out of range");
        stack_.push_back(globals_[static_cast<std::size_t>(ins.imm)]);
        break;
      case OpCode::storeg:
        if (stack_.empty()) return trap("storeg on empty stack");
        if (ins.imm < 0 || ins.imm >= static_cast<std::int64_t>(globals_.size()))
          return trap("global index out of range");
        globals_[static_cast<std::size_t>(ins.imm)] = stack_.back();
        stack_.pop_back();
        break;
      case OpCode::jmp:
        pc_ = ins.imm;
        break;
      case OpCode::jz: {
        if (stack_.empty()) return trap("jz on empty stack");
        std::int64_t v = stack_.back();
        stack_.pop_back();
        if (v == 0) pc_ = ins.imm;
        break;
      }
      case OpCode::jnz: {
        if (stack_.empty()) return trap("jnz on empty stack");
        std::int64_t v = stack_.back();
        stack_.pop_back();
        if (v != 0) pc_ = ins.imm;
        break;
      }
      case OpCode::call: {
        if (frames_.size() >= quota_.max_frames) return quota_fault("call depth exceeded");
        if (stack_.empty()) return trap("call needs an argument count");
        std::int64_t nargs = stack_.back();
        stack_.pop_back();
        if (nargs < 0 || static_cast<std::size_t>(nargs) > stack_.size())
          return trap("bad argument count");
        Frame frame;
        frame.return_pc = pc_;
        frame.locals.assign(stack_.end() - nargs, stack_.end());
        stack_.resize(stack_.size() - static_cast<std::size_t>(nargs));
        frame.stack_base = static_cast<std::int64_t>(stack_.size());
        frames_.push_back(std::move(frame));
        pc_ = ins.imm;
        break;
      }
      case OpCode::ret: {
        if (frames_.empty()) return trap("ret outside a function");
        Frame frame = std::move(frames_.back());
        frames_.pop_back();
        std::int64_t result = 0;
        bool has_result = static_cast<std::int64_t>(stack_.size()) > frame.stack_base;
        if (has_result) result = stack_.back();
        stack_.resize(static_cast<std::size_t>(frame.stack_base));
        if (has_result) stack_.push_back(result);
        pc_ = frame.return_pc;
        break;
      }
      case OpCode::emit:
        if (stack_.empty()) return trap("emit on empty stack");
        if (output_.size() >= quota_.max_output) return quota_fault("output quota exceeded");
        output_.push_back(stack_.back());
        stack_.pop_back();
        break;
      case OpCode::recv:
        if (input_.empty()) {
          --pc_;  // re-execute recv when input arrives
          --cycles_;
          status_ = VmStatus::blocked;
          return status_;
        }
        if (stack_.size() >= quota_.max_stack) return quota_fault("operand stack overflow");
        stack_.push_back(input_.front());
        input_.pop_front();
        break;
      case OpCode::halt:
        exit_code_ = stack_.empty() ? 0 : stack_.back();
        status_ = VmStatus::halted;
        return status_;
      case OpCode::work: {
        if (ins.imm < 0) return trap("negative work");
        std::uint64_t extra = static_cast<std::uint64_t>(ins.imm);
        if (cycles_ + extra > quota_.max_cycles) {
          cycles_ = quota_.max_cycles;
          return quota_fault("cycle budget exhausted");
        }
        cycles_ += extra;
        break;
      }
      case OpCode::ckpt:
        status_ = VmStatus::checkpoint;
        return status_;
      case OpCode::self:
        if (stack_.size() >= quota_.max_stack) return quota_fault("operand stack overflow");
        stack_.push_back(instance_id_);
        break;
      case OpCode::trapop:
        return trap("explicit trap");
      default:
        return trap("illegal opcode " + std::to_string(static_cast<int>(ins.op)));
    }
  }
  return status_;  // quantum exhausted, still runnable
}

Bytes Vm::snapshot() const { return encode(*this); }

Result<Vm> Vm::restore(const Bytes& snapshot) { return decode<Vm>(snapshot); }

Result<void> Vm::check() const {
  constexpr std::size_t kMaxSequence = 1 << 24;
  if (frames_.size() > 1 << 20) return Error{Errc::corrupt, "absurd frame count"};
  bool absurd = stack_.size() > kMaxSequence || globals_.size() > kMaxSequence ||
                input_.size() > kMaxSequence || output_.size() > kMaxSequence;
  for (const Frame& f : frames_) absurd = absurd || f.locals.size() > kMaxSequence;
  if (absurd) return Error{Errc::corrupt, "absurd sequence size"};
  return ok_result();
}

}  // namespace snipe::playground
