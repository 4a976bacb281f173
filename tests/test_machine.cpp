// Unit tests for the machine model (Tables 2-5) and its config format.
#include <gtest/gtest.h>

#include <limits>

#include "machine/machine.hpp"
#include "machine/machine_parser.hpp"
#include "util/check.hpp"

namespace pipesched {
namespace {

TEST(Machine, PaperSimulationMatchesTables4And5) {
  const Machine m = Machine::paper_simulation();
  ASSERT_EQ(m.pipeline_count(), 2u);  // Table 4: loader and multiplier only
  EXPECT_EQ(m.pipeline(0).function, "loader");
  EXPECT_EQ(m.pipeline(0).latency, 2);
  EXPECT_EQ(m.pipeline(0).enqueue, 1);
  EXPECT_EQ(m.pipeline(1).function, "multiplier");
  EXPECT_EQ(m.pipeline(1).latency, 4);
  EXPECT_EQ(m.pipeline(1).enqueue, 2);
  EXPECT_EQ(m.latency_for(Opcode::Load), 2);
  EXPECT_EQ(m.latency_for(Opcode::Mul), 4);
  EXPECT_EQ(m.enqueue_for(Opcode::Mul), 2);
  // Everything else is single-cycle with no pipelined resource.
  for (Opcode op : {Opcode::Const, Opcode::Store, Opcode::Add, Opcode::Sub,
                    Opcode::Neg, Opcode::Mov}) {
    EXPECT_FALSE(m.uses_pipeline(op));
    EXPECT_EQ(m.latency_for(op), 0);
  }
  EXPECT_EQ(m.max_latency(), 4);
}

TEST(Machine, PaperExampleHasDuplicatedUnits) {
  const Machine m = Machine::paper_example();
  ASSERT_EQ(m.pipeline_count(), 5u);
  EXPECT_EQ(m.pipelines_for(Opcode::Load).size(), 2u);
  EXPECT_EQ(m.pipelines_for(Opcode::Add).size(), 2u);
  EXPECT_EQ(m.pipelines_for(Opcode::Sub), m.pipelines_for(Opcode::Add));
  EXPECT_EQ(m.pipelines_for(Opcode::Mul).size(), 1u);
}

TEST(Machine, AllPresetsValidate) {
  for (const std::string& name : Machine::preset_names()) {
    const Machine m = Machine::preset(name);
    EXPECT_NO_THROW(m.validate()) << name;
    EXPECT_EQ(m.name(), name);
  }
  EXPECT_THROW(Machine::preset("nope"), Error);
}

TEST(Machine, RejectsBadParameters) {
  Machine m("bad");
  EXPECT_THROW(m.add_pipeline("u", 0, 1), Error);
  EXPECT_THROW(m.add_pipeline("u", 1, 0), Error);
  m.add_pipeline("u", 1, 1);
  EXPECT_THROW(m.map_op(Opcode::Add, "missing"), Error);
  EXPECT_THROW(m.map_op(Opcode::Add, std::vector<PipelineId>{7}), Error);
}

TEST(Machine, RejectsCycleCountsAboveTheBound) {
  Machine m("big");
  EXPECT_THROW(m.add_pipeline("u", kMaxPipelineCycles + 1, 1), Error);
  EXPECT_THROW(m.add_pipeline("u", 1, kMaxPipelineCycles + 1), Error);
  EXPECT_THROW(m.add_pipeline("u", std::numeric_limits<int>::max(), 1), Error);
  EXPECT_EQ(m.pipeline_count(), 0u);
  m.add_pipeline("u", kMaxPipelineCycles, kMaxPipelineCycles);
  EXPECT_EQ(m.pipeline(0).latency, kMaxPipelineCycles);
  EXPECT_EQ(m.pipeline(0).enqueue, kMaxPipelineCycles);
}

TEST(Machine, UnitGroupsClassifyBySignature) {
  Machine m("hetero");
  m.add_pipeline("alu", 2, 1);
  m.add_pipeline("alu", 3, 1);  // different latency, same function
  m.add_pipeline("alu", 2, 1);  // same signature as the first
  m.map_op(Opcode::Add, "alu");
  EXPECT_NO_THROW(m.validate());  // heterogeneous alternatives are legal
  EXPECT_TRUE(m.has_heterogeneous_alternatives());
  const auto& groups = m.unit_groups(Opcode::Add);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), 2u);  // the two (2,1) units
  EXPECT_EQ(groups[1].size(), 1u);  // the (3,1) unit
  // latency_for/enqueue_for report the MINIMUM across alternatives.
  EXPECT_EQ(m.latency_for(Opcode::Add), 2);
  EXPECT_EQ(m.enqueue_for(Opcode::Add), 1);
}

TEST(Machine, HomogeneousMachinesHaveSingleGroups) {
  const Machine m = Machine::paper_example();
  EXPECT_FALSE(m.has_heterogeneous_alternatives());
  EXPECT_EQ(m.unit_groups(Opcode::Load).size(), 1u);
  EXPECT_EQ(m.unit_groups(Opcode::Load).front().size(), 2u);
  EXPECT_TRUE(m.unit_groups(Opcode::Const).empty());
}

TEST(Machine, AsymmetricAlusPreset) {
  const Machine m = Machine::asymmetric_alus();
  EXPECT_TRUE(m.has_heterogeneous_alternatives());
  EXPECT_EQ(m.unit_groups(Opcode::Add).size(), 2u);
  EXPECT_EQ(m.latency_for(Opcode::Add), 1);  // the fast ALU
}

TEST(Machine, MapOpDeduplicates) {
  Machine m("dup");
  m.add_pipeline("alu", 2, 1);
  m.map_op(Opcode::Add, "alu");
  m.map_op(Opcode::Add, "alu");
  EXPECT_EQ(m.pipelines_for(Opcode::Add).size(), 1u);
}

TEST(MachineParser, ParsesSimpleConfig) {
  const Machine m = parse_machine(
      "# two-unit toy machine\n"
      "machine toy\n"
      "pipeline loader latency 3 enqueue 1\n"
      "pipeline alu latency 1 enqueue 1\n"
      "map Load loader\n"
      "map Add alu\n"
      "map Sub alu\n");
  EXPECT_EQ(m.name(), "toy");
  EXPECT_EQ(m.pipeline_count(), 2u);
  EXPECT_EQ(m.latency_for(Opcode::Load), 3);
  EXPECT_TRUE(m.uses_pipeline(Opcode::Sub));
  EXPECT_FALSE(m.uses_pipeline(Opcode::Mul));
}

TEST(MachineParser, RoundTripsEveryPreset) {
  for (const std::string& name : Machine::preset_names()) {
    const Machine m = Machine::preset(name);
    const Machine again = parse_machine(machine_to_config(m));
    EXPECT_EQ(again.pipeline_count(), m.pipeline_count()) << name;
    for (int op = 0; op < kOpcodeCount; ++op) {
      EXPECT_EQ(again.pipelines_for(static_cast<Opcode>(op)),
                m.pipelines_for(static_cast<Opcode>(op)))
          << name << " op " << op;
    }
  }
}

TEST(MachineParser, DiagnosesErrorsWithLineNumbers) {
  try {
    parse_machine("machine t\npipeline u latency x enqueue 1\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_machine("pipeline u latency 1 enqueue 1\n"), Error);
  EXPECT_THROW(parse_machine("machine t\nmap Load loader\n"), Error);
  EXPECT_THROW(parse_machine("machine t\nfrobnicate\n"), Error);
  EXPECT_THROW(parse_machine(""), Error);
}

TEST(MachineParser, RejectsCycleCountsAboveTheBound) {
  EXPECT_THROW(parse_machine("machine t\n"
                             "pipeline u latency 2147483647 enqueue 1\n"
                             "map Add u\n"),
               Error);
  EXPECT_THROW(parse_machine("machine t\n"
                             "pipeline u latency 1 enqueue 30000000\n"
                             "map Add u\n"),
               Error);
  const Machine m = parse_machine(
      "machine t\n"
      "pipeline u latency 1024 enqueue 1024\n"
      "map Add u\n");
  EXPECT_EQ(m.pipeline(0).latency, kMaxPipelineCycles);
  EXPECT_EQ(m.pipeline(0).enqueue, kMaxPipelineCycles);
}

TEST(Machine, ToStringShowsBothTables) {
  const std::string text = Machine::paper_simulation().to_string();
  EXPECT_NE(text.find("Pipeline Function"), std::string::npos);
  EXPECT_NE(text.find("loader"), std::string::npos);
  EXPECT_NE(text.find("Operation"), std::string::npos);
  EXPECT_NE(text.find("Mul"), std::string::npos);
}

}  // namespace
}  // namespace pipesched
