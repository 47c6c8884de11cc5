// SVM: the SNIPE mobile-code virtual machine.
//
// The paper expects mobile code "written in a machine-independent language
// such as Java, Python, or Limbo" because such runtimes "may also be able
// to arrange the allocation of program storage, in a way that facilitates
// checkpointing, restart, and migration" (§3.6).  SVM is exactly that: a
// small stack machine whose *entire* execution state — operand stack, call
// frames, globals, pending I/O — serializes to a flat byte string.  A
// checkpoint is `snapshot()`; migration is snapshot + ship + `restore()`.
//
// Resource quotas (§3.6: "enforcing access restrictions and resource usage
// quotas") are enforced per-instruction: cycle budget, stack depth, global
// store size and output volume.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/codec.hpp"
#include "util/result.hpp"

namespace snipe::playground {

/// Instruction set.  Fixed-width encoding: opcode byte + i64 immediate.
enum class OpCode : std::uint8_t {
  // stack
  push = 1,   ///< push immediate
  pop = 2,
  dup = 3,
  swap = 4,
  // arithmetic / logic (binary ops pop b then a, push a OP b)
  add = 10,
  sub = 11,
  mul = 12,
  divi = 13,  ///< traps on division by zero
  mod = 14,
  neg = 15,
  eq = 16,
  ne = 17,
  lt = 18,
  le = 19,
  gt = 20,
  ge = 21,
  land = 22,
  lor = 23,
  lnot = 24,
  // data movement
  loadl = 30,   ///< push local[imm]
  storel = 31,  ///< local[imm] = pop
  loadg = 32,   ///< push global[imm]
  storeg = 33,  ///< global[imm] = pop
  // control
  jmp = 40,   ///< pc = imm
  jz = 41,    ///< pop; if zero pc = imm
  jnz = 42,   ///< pop; if nonzero pc = imm
  call = 43,  ///< call function at imm; arg count on stack top
  ret = 44,   ///< return, preserving the top of stack as the result
  // environment
  emit = 50,     ///< pop -> output queue (host mailbox)
  recv = 51,     ///< input queue -> push; blocks when empty
  halt = 52,     ///< finish with exit code = pop
  work = 53,     ///< consume imm extra cycles (models computation)
  ckpt = 54,     ///< request a checkpoint (host decides what to do)
  self = 55,     ///< push the VM's instance id (host-assigned)
  trapop = 56,   ///< deliberately trap (for testing fault paths)
};

struct Instruction {
  OpCode op;
  std::int64_t imm = 0;

  template <class Io>
  void fields(Io& io) {
    io(op, imm);
  }
};

/// A compiled program: instructions + number of globals it needs.
struct Program {
  std::vector<Instruction> code;
  std::int64_t globals = 0;

  template <class Io>
  void fields(Io& io) {
    io(globals, code);
  }
  Result<void> check() const {
    if (globals < 0 || globals > 1 << 20) return Error{Errc::corrupt, "absurd global count"};
    if (code.size() > 1 << 22) return Error{Errc::corrupt, "absurd code size"};
    return ok_result();
  }
};

/// Why the VM stopped running.
enum class VmStatus : std::uint8_t {
  ready = 0,        ///< never started / can continue
  running = 1,      ///< stopped only because the cycle quantum ran out
  blocked = 2,      ///< waiting on `recv` with an empty input queue
  checkpoint = 3,   ///< executed `ckpt`; host should snapshot
  halted = 4,       ///< executed `halt`
  trapped = 5,      ///< runtime fault (bad opcode, div by zero, ...)
  quota = 6,        ///< exceeded a resource quota
};

const char* vm_status_name(VmStatus s);

struct VmQuota {
  std::uint64_t max_cycles = 100'000'000;  ///< lifetime instruction budget
  std::uint64_t max_stack = 64 * 1024;
  std::uint64_t max_frames = 1024;
  std::uint64_t max_output = 1 << 20;  ///< queued, un-drained emits

  template <class Io>
  void fields(Io& io) {
    io(max_cycles, max_stack, max_frames, max_output);
  }
};

class Vm {
 public:
  Vm() = default;
  Vm(Program program, VmQuota quota);

  /// Executes up to `quantum` instructions; returns why it stopped.
  VmStatus run(std::uint64_t quantum);

  VmStatus status() const { return status_; }
  std::int64_t exit_code() const { return exit_code_; }
  /// Human-readable fault description after `trapped` / `quota`.
  const std::string& fault() const { return fault_; }
  std::uint64_t cycles_used() const { return cycles_; }

  /// Host-side I/O: feed the input queue (unblocks `recv`), drain emits.
  void push_input(std::int64_t value);
  std::vector<std::int64_t> drain_output();
  /// Clears a `checkpoint` pause so run() can continue.
  void acknowledge_checkpoint();
  void set_instance_id(std::int64_t id) { instance_id_ = id; }

  /// Full-state snapshot: everything needed to resume this VM elsewhere,
  /// including the program itself (the code travels with the state — this
  /// is what makes SNIPE mobile code mobile).
  Bytes snapshot() const;
  static Result<Vm> restore(const Bytes& snapshot);

  /// The snapshot's layout: the program as a nested blob, then the state.
  template <class Io>
  void fields(Io& io) {
    io(codec::in_blob(program_), quota_, pc_, stack_, frames_, globals_, input_, output_,
       cycles_, status_, exit_code_, instance_id_);
  }
  Result<void> check() const;

 private:
  struct Frame {
    std::int64_t return_pc = 0;
    std::int64_t stack_base = 0;  ///< operand stack size at entry (after args)
    std::vector<std::int64_t> locals;

    template <class Io>
    void fields(Io& io) {
      io(return_pc, stack_base, locals);
    }
  };

  VmStatus trap(std::string why);
  VmStatus quota_fault(std::string why);

  Program program_;
  VmQuota quota_;
  std::int64_t pc_ = 0;
  std::vector<std::int64_t> stack_;
  std::vector<Frame> frames_;
  std::vector<std::int64_t> globals_;
  std::deque<std::int64_t> input_;
  std::deque<std::int64_t> output_;
  std::uint64_t cycles_ = 0;
  VmStatus status_ = VmStatus::ready;
  std::int64_t exit_code_ = 0;
  std::string fault_;
  std::int64_t instance_id_ = 0;
};

}  // namespace snipe::playground
