// Tests for the SVM mobile-code machine: instruction semantics, quotas,
// checkpoint/restore equivalence, the assembler, verified playground
// loading, and scheduled VmTask execution.
#include <gtest/gtest.h>

#include "playground/playground.hpp"
#include "playground/svm.hpp"
#include "playground/svmasm.hpp"
#include "rcds/server.hpp"

namespace snipe::playground {
namespace {

Vm make_vm(const std::string& source, VmQuota quota = {}) {
  auto program = assemble(source);
  EXPECT_TRUE(program.ok()) << (program.ok() ? "" : program.error().to_string());
  return Vm(std::move(program).take(), quota);
}

std::vector<std::int64_t> run_collect(Vm& vm, std::uint64_t budget = 1'000'000) {
  vm.run(budget);
  return vm.drain_output();
}

TEST(Svm, ArithmeticAndEmit) {
  Vm vm = make_vm(R"(
    push 6
    push 7
    mul
    emit
    push 10
    push 3
    div
    emit
    push 10
    push 3
    mod
    emit
    push 0
    halt
  )");
  EXPECT_EQ(run_collect(vm), (std::vector<std::int64_t>{42, 3, 1}));
  EXPECT_EQ(vm.status(), VmStatus::halted);
  EXPECT_EQ(vm.exit_code(), 0);
}

TEST(Svm, ComparisonsAndLogic) {
  Vm vm = make_vm(R"(
    push 3
    push 5
    lt
    emit     ; 1
    push 3
    push 5
    ge
    emit     ; 0
    push 1
    push 0
    or
    emit     ; 1
    push 1
    not
    emit     ; 0
    push 7
    neg
    emit     ; -7
    halt
  )");
  EXPECT_EQ(run_collect(vm), (std::vector<std::int64_t>{1, 0, 1, 0, -7}));
}

TEST(Svm, LoopWithGlobals) {
  // Sum 1..10 into global 0.
  Vm vm = make_vm(R"(
    .globals 2
    push 1
    storeg 1
  loop:
    loadg 0
    loadg 1
    add
    storeg 0
    loadg 1
    push 1
    add
    dup
    storeg 1
    push 10
    le
    jnz loop
    loadg 0
    emit
    halt
  )");
  EXPECT_EQ(run_collect(vm), (std::vector<std::int64_t>{55}));
}

TEST(Svm, FunctionCallsWithArgsAndResult) {
  // square(x) = x*x; emit square(9).
  Vm vm = make_vm(R"(
    jmp main
  square:
    loadl 0
    loadl 0
    mul
    ret
  main:
    push 9
    call square 1
    emit
    halt
  )");
  EXPECT_EQ(run_collect(vm), (std::vector<std::int64_t>{81}));
}

TEST(Svm, RecursionFactorial) {
  Vm vm = make_vm(R"(
    jmp main
  fact:
    loadl 0
    push 2
    lt
    jz recurse
    push 1
    ret
  recurse:
    loadl 0
    push 1
    sub
    call fact 1
    loadl 0
    mul
    ret
  main:
    push 10
    call fact 1
    emit
    halt
  )");
  EXPECT_EQ(run_collect(vm), (std::vector<std::int64_t>{3628800}));
}

TEST(Svm, RecvBlocksUntilInput) {
  Vm vm = make_vm(R"(
  loop:
    recv
    push 2
    mul
    emit
    jmp loop
  )");
  vm.run(1000);
  EXPECT_EQ(vm.status(), VmStatus::blocked);
  vm.push_input(21);
  vm.run(1000);
  EXPECT_EQ(vm.drain_output(), (std::vector<std::int64_t>{42}));
  EXPECT_EQ(vm.status(), VmStatus::blocked);
}

TEST(Svm, TrapsAreReported) {
  Vm div0 = make_vm("push 1\npush 0\ndiv\nhalt");
  div0.run(100);
  EXPECT_EQ(div0.status(), VmStatus::trapped);
  EXPECT_NE(div0.fault().find("division by zero"), std::string::npos);

  Vm underflow = make_vm("pop\nhalt");
  underflow.run(100);
  EXPECT_EQ(underflow.status(), VmStatus::trapped);

  Vm bad_jump = make_vm("jmp 999");
  bad_jump.run(100);
  EXPECT_EQ(bad_jump.status(), VmStatus::trapped);

  Vm explicit_trap = make_vm("trap");
  explicit_trap.run(100);
  EXPECT_EQ(explicit_trap.status(), VmStatus::trapped);
}

TEST(Svm, CycleQuotaEnforced) {
  VmQuota quota;
  quota.max_cycles = 1000;
  Vm vm = make_vm("loop: jmp loop", quota);
  vm.run(10'000'000);
  EXPECT_EQ(vm.status(), VmStatus::quota);
  EXPECT_EQ(vm.cycles_used(), 1000u);
}

TEST(Svm, WorkInstructionChargesCycles) {
  VmQuota quota;
  quota.max_cycles = 1000;
  Vm vm = make_vm("work 500\nwork 600\nhalt", quota);
  vm.run(100);
  EXPECT_EQ(vm.status(), VmStatus::quota);  // 500 + 600 > 1000
}

TEST(Svm, StackQuotaEnforced) {
  VmQuota quota;
  quota.max_stack = 16;
  Vm vm = make_vm("loop: push 1\njmp loop", quota);
  vm.run(10'000);
  EXPECT_EQ(vm.status(), VmStatus::quota);
}

TEST(Svm, CallDepthQuotaEnforced) {
  VmQuota quota;
  quota.max_frames = 8;
  Vm vm = make_vm(R"(
    jmp main
  f:
    call f 0
    ret
  main:
    call f 0
    halt
  )",
                  quota);
  vm.run(10'000);
  EXPECT_EQ(vm.status(), VmStatus::quota);
}

TEST(Svm, QuantumSlicingPreservesSemantics) {
  auto full = make_vm(R"(
    .globals 1
  loop:
    loadg 0
    push 1
    add
    dup
    storeg 0
    push 1000
    lt
    jnz loop
    loadg 0
    emit
    halt
  )");
  auto sliced = full;  // copy before running
  full.run(1'000'000);
  while (sliced.status() != VmStatus::halted) sliced.run(7);  // odd quantum
  EXPECT_EQ(full.drain_output(), sliced.drain_output());
  EXPECT_EQ(full.cycles_used(), sliced.cycles_used());
}

TEST(Svm, CheckpointRestoreResumesExactly) {
  // Run half the loop, snapshot, restore on a "different host", finish; the
  // result must match an uninterrupted run.
  std::string source = R"(
    .globals 2
    push 1
    storeg 1
  loop:
    loadg 0
    loadg 1
    add
    storeg 0
    loadg 1
    push 1
    add
    dup
    storeg 1
    push 100
    le
    jnz loop
    loadg 0
    emit
    halt
  )";
  Vm uninterrupted = make_vm(source);
  uninterrupted.run(1'000'000);
  auto expected = uninterrupted.drain_output();

  Vm first_half = make_vm(source);
  first_half.run(250);  // stop mid-loop
  ASSERT_EQ(first_half.status(), VmStatus::running);
  Bytes snapshot = first_half.snapshot();

  Vm resumed = Vm::restore(snapshot).value();
  EXPECT_EQ(resumed.cycles_used(), first_half.cycles_used());
  resumed.run(1'000'000);
  EXPECT_EQ(resumed.status(), VmStatus::halted);
  EXPECT_EQ(resumed.drain_output(), expected);
}

TEST(Svm, CheckpointPreservesPendingIo) {
  Vm vm = make_vm(R"(
    recv
    recv
    add
    emit
    push 0
    halt
  )");
  vm.push_input(40);
  vm.run(1);  // consume nothing yet (first recv executes on next run)
  Bytes snapshot = vm.snapshot();
  Vm restored = Vm::restore(snapshot).value();
  restored.push_input(2);
  restored.run(1000);
  EXPECT_EQ(restored.drain_output(), (std::vector<std::int64_t>{42}));
}

TEST(Svm, CkptInstructionPausesForHost) {
  Vm vm = make_vm(R"(
    push 7
    emit
    ckpt
    push 8
    emit
    halt
  )");
  vm.run(1000);
  EXPECT_EQ(vm.status(), VmStatus::checkpoint);
  EXPECT_EQ(vm.drain_output(), (std::vector<std::int64_t>{7}));
  vm.acknowledge_checkpoint();
  vm.run(1000);
  EXPECT_EQ(vm.status(), VmStatus::halted);
  EXPECT_EQ(vm.drain_output(), (std::vector<std::int64_t>{8}));
}

TEST(Svm, SelfReturnsInstanceId) {
  Vm vm = make_vm("self\nemit\nhalt");
  vm.set_instance_id(1234);
  vm.run(100);
  EXPECT_EQ(vm.drain_output(), (std::vector<std::int64_t>{1234}));
}

TEST(Svm, ProgramEncodeDecodeRoundTrip) {
  auto program = assemble("push 1\nemit\nhalt").take();
  auto decoded = decode<Program>(encode(program)).value();
  ASSERT_EQ(decoded.code.size(), program.code.size());
  EXPECT_EQ(decoded.code[0].imm, 1);
  EXPECT_FALSE(decode<Program>(Bytes{1, 2}).ok());
}

TEST(SvmAsm, ReportsErrorsWithLineNumbers) {
  auto missing_label = assemble("jmp nowhere");
  ASSERT_FALSE(missing_label.ok());
  EXPECT_NE(missing_label.error().message.find("nowhere"), std::string::npos);

  auto bad_mnemonic = assemble("push 1\nfrobnicate");
  ASSERT_FALSE(bad_mnemonic.ok());
  EXPECT_NE(bad_mnemonic.error().message.find("line 2"), std::string::npos);

  EXPECT_FALSE(assemble("push").ok());         // missing operand
  EXPECT_FALSE(assemble("dup 3").ok());        // spurious operand
  EXPECT_FALSE(assemble("x:\nx:\nhalt").ok()); // duplicate label
  EXPECT_FALSE(assemble(".globals -1").ok());
}

TEST(SvmAsm, LabelsAndCommentsAndSharedLines) {
  auto program = assemble(R"(
    ; header comment
    start: push 5   ; inline comment
    emit
    jmp end
    push 99
    end: halt
  )");
  ASSERT_TRUE(program.ok());
  Vm vm(std::move(program).take(), {});
  vm.run(100);
  EXPECT_EQ(vm.drain_output(), (std::vector<std::int64_t>{5}));
  EXPECT_EQ(vm.status(), VmStatus::halted);
}

// ---- Playground verification + VmTask scheduling ----

struct PlaygroundFixture : ::testing::Test {
  PlaygroundFixture() : world(71), rng(72) {
    world.create_network("lan", simnet::ethernet100());
    for (const char* n : {"rc", "fs", "node"})
      world.attach(world.create_host(n), *world.network("lan"));
    rc_server = std::make_unique<rcds::RcServer>(*world.host("rc"));
    fs = std::make_unique<files::FileServer>(*world.host("fs"),
                                             std::vector<simnet::Address>{rc_server->address()});
    node_rpc = std::make_unique<transport::RpcEndpoint>(*world.host("node"), 9300);
    rc_client = std::make_unique<rcds::RcClient>(
        *node_rpc, std::vector<simnet::Address>{rc_server->address()});
    file_client = std::make_unique<files::FileClient>(
        *node_rpc, std::vector<simnet::Address>{rc_server->address()});

    signer = crypto::Principal::create("urn:snipe:user:codesigner", rng);
    ca = crypto::Principal::create("urn:snipe:rm:ca", rng);
    signer_cert = crypto::Certificate::issue(ca, signer.uri, signer.keys.pub,
                                             {crypto::TrustPurpose::sign_mobile_code});
    trust.trust(ca.uri, ca.keys.pub, crypto::TrustPurpose::sign_mobile_code);
  }

  void publish(const std::string& lifn, const Program& program) {
    Result<void> published(Errc::state_error, "unset");
    publish_code(*file_client, *rc_client, fs->address(), lifn, program, signer, signer_cert,
                 [&](Result<void> r) { published = r; });
    world.engine().run();
    ASSERT_TRUE(published.ok()) << published.error().to_string();
  }

  simnet::World world;
  Rng rng;
  std::unique_ptr<rcds::RcServer> rc_server;
  std::unique_ptr<files::FileServer> fs;
  std::unique_ptr<transport::RpcEndpoint> node_rpc;
  std::unique_ptr<rcds::RcClient> rc_client;
  std::unique_ptr<files::FileClient> file_client;
  crypto::Principal signer, ca;
  crypto::Certificate signer_cert;
  crypto::TrustStore trust;
};

TEST_F(PlaygroundFixture, LoadsVerifiedCode) {
  publish("lifn://utk.edu/code/hello", assemble("push 42\nemit\nhalt").take());
  Playground pg(*rc_client, *file_client, trust);
  Result<Vm> loaded(Errc::state_error, "unset");
  pg.load("lifn://utk.edu/code/hello", [&](Result<Vm> r) { loaded = std::move(r); });
  world.engine().run();
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  loaded.value().run(100);
  EXPECT_EQ(loaded.value().drain_output(), (std::vector<std::int64_t>{42}));
  EXPECT_EQ(pg.stats().loads_ok, 1u);
}

TEST_F(PlaygroundFixture, RejectsUnsignedCode) {
  // Store the file and hash but no signature metadata.
  Bytes code = encode(assemble("halt").take());
  Result<void> wrote(Errc::state_error, "unset");
  file_client->write(fs->address(), "lifn://utk.edu/code/unsigned", code,
                     [&](Result<void> r) { wrote = r; });
  world.engine().run();
  ASSERT_TRUE(wrote.ok());

  Playground pg(*rc_client, *file_client, trust);
  Result<Vm> loaded(Errc::state_error, "unset");
  pg.load("lifn://utk.edu/code/unsigned", [&](Result<Vm> r) { loaded = std::move(r); });
  world.engine().run();
  EXPECT_EQ(loaded.code(), Errc::permission_denied);
  EXPECT_EQ(pg.stats().loads_rejected, 1u);
}

TEST_F(PlaygroundFixture, RejectsCodeSignedByUntrustedSigner) {
  // A signer whose certificate comes from a CA the playground does NOT
  // trust.
  auto rogue_ca = crypto::Principal::create("urn:snipe:rm:rogue", rng);
  auto rogue_signer = crypto::Principal::create("urn:snipe:user:rogue", rng);
  auto rogue_cert = crypto::Certificate::issue(rogue_ca, rogue_signer.uri,
                                               rogue_signer.keys.pub,
                                               {crypto::TrustPurpose::sign_mobile_code});
  Result<void> published(Errc::state_error, "unset");
  publish_code(*file_client, *rc_client, fs->address(), "lifn://utk.edu/code/rogue",
               assemble("halt").take(), rogue_signer, rogue_cert,
               [&](Result<void> r) { published = r; });
  world.engine().run();
  ASSERT_TRUE(published.ok());

  Playground pg(*rc_client, *file_client, trust);
  Result<Vm> loaded(Errc::state_error, "unset");
  pg.load("lifn://utk.edu/code/rogue", [&](Result<Vm> r) { loaded = std::move(r); });
  world.engine().run();
  EXPECT_EQ(loaded.code(), Errc::permission_denied);
}

TEST_F(PlaygroundFixture, RejectsTamperedCode) {
  publish("lifn://utk.edu/code/tamper", assemble("push 1\nemit\nhalt").take());
  // Corrupt the stored bytes after signing (announce=false keeps metadata).
  fs->store_local("lifn://utk.edu/code/tamper", encode(assemble("push 666\nemit\nhalt").take()),
                  /*announce=*/false);
  Playground pg(*rc_client, *file_client, trust);
  Result<Vm> loaded(Errc::state_error, "unset");
  pg.load("lifn://utk.edu/code/tamper", [&](Result<Vm> r) { loaded = std::move(r); });
  world.engine().run();
  EXPECT_EQ(loaded.code(), Errc::corrupt);  // content hash mismatch
}

TEST_F(PlaygroundFixture, UnsignedModeRunsAnything) {
  Bytes code = encode(assemble("halt").take());
  file_client->write(fs->address(), "lifn://utk.edu/code/любой", code, [](Result<void>) {});
  world.engine().run();
  PlaygroundConfig cfg;
  cfg.require_signature = false;
  Playground pg(*rc_client, *file_client, {}, cfg);
  Result<Vm> loaded(Errc::state_error, "unset");
  pg.load("lifn://utk.edu/code/любой", [&](Result<Vm> r) { loaded = std::move(r); });
  world.engine().run();
  EXPECT_TRUE(loaded.ok());
}

TEST(VmTask, RunsOnVirtualClockAndCharges) {
  simnet::World world(73);
  auto program = assemble(R"(
    work 1000000
    push 1
    emit
    halt
  )");
  VmTask task(world.engine(), Vm(std::move(program).take(), {}), /*cycle_time=*/10);
  std::vector<std::int64_t> out;
  VmStatus final_status = VmStatus::ready;
  task.set_output_handler([&](std::int64_t v) { out.push_back(v); });
  task.set_exit_handler([&](VmStatus s, std::int64_t) { final_status = s; });
  task.start();
  world.engine().run();
  EXPECT_EQ(out, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(final_status, VmStatus::halted);
  // ~1e6 cycles at 10 ns each -> ~10 ms of virtual CPU.
  EXPECT_GT(world.now(), duration::milliseconds(9));
  EXPECT_LT(world.now(), duration::milliseconds(12));
}

TEST(VmTask, SuspendResumeAndKill) {
  simnet::World world(74);
  auto program = assemble("loop: work 100\njmp loop");
  VmTask task(world.engine(), Vm(std::move(program).take(), {}));
  task.start();
  world.engine().run_for(duration::milliseconds(1));
  task.suspend();
  std::uint64_t cycles_at_suspend = task.vm().cycles_used();
  world.engine().run_for(duration::milliseconds(5));
  EXPECT_EQ(task.vm().cycles_used(), cycles_at_suspend);  // really stopped
  task.resume();
  world.engine().run_for(duration::milliseconds(1));
  EXPECT_GT(task.vm().cycles_used(), cycles_at_suspend);
  bool exited = false;
  task.set_exit_handler([&](VmStatus, std::int64_t) { exited = true; });
  task.kill();
  EXPECT_TRUE(exited);
}

TEST(VmTask, CheckpointHandlerReceivesRestorableSnapshot) {
  simnet::World world(75);
  auto program = assemble(R"(
    push 11
    emit
    ckpt
    push 22
    emit
    halt
  )");
  VmTask task(world.engine(), Vm(std::move(program).take(), {}));
  Bytes snapshot;
  task.set_checkpoint_handler([&](Bytes s) { snapshot = std::move(s); });
  task.start();
  world.engine().run();
  ASSERT_FALSE(snapshot.empty());
  // The snapshot was taken *at* the checkpoint: restoring it replays the
  // rest of the program.
  Vm restored = Vm::restore(snapshot).value();
  restored.run(1000);
  EXPECT_EQ(restored.drain_output(), (std::vector<std::int64_t>{22}));
}

}  // namespace
}  // namespace snipe::playground
