#include <gtest/gtest.h>

#include <algorithm>

#include "lang/expr.h"
#include "lang/interpreter.h"
#include "lang/program.h"
#include "lang/programs.h"
#include "lang/value.h"
#include "test_util.h"

namespace splice::lang {
namespace {

using splice::testing::binom_value;
using splice::testing::fib_value;
using splice::testing::nqueens_value;

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, IntBasics) {
  const Value v = Value::integer(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_FALSE(v.is_list());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_TRUE(v.truthy());
  EXPECT_FALSE(Value::integer(0).truthy());
  EXPECT_EQ(v.size_units(), 1U);
  EXPECT_EQ(v.to_string(), "42");
  EXPECT_THROW((void)v.as_list(), std::logic_error);
}

TEST(Value, ListBasics) {
  const Value v = Value::list({1, 2, 3});
  EXPECT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 3U);
  EXPECT_TRUE(v.truthy());
  EXPECT_FALSE(Value::list({}).truthy());
  EXPECT_THROW((void)v.as_int(), std::logic_error);
  EXPECT_EQ(Value::list(std::vector<std::int64_t>(80, 1)).size_units(), 11U);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value::integer(5), Value::integer(5));
  EXPECT_NE(Value::integer(5), Value::integer(6));
  EXPECT_EQ(Value::list({1, 2}), Value::list({1, 2}));
  EXPECT_NE(Value::list({1, 2}), Value::list({2, 1}));
  EXPECT_NE(Value::integer(1), Value::list({1}));
}

TEST(Value, DefaultIsZero) {
  const Value v;
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 0);
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

Value prim(Op op, std::vector<Value> args, std::uint64_t* cost = nullptr) {
  return apply_prim(op, args, cost);
}

TEST(Prims, ScalarArithmetic) {
  EXPECT_EQ(prim(Op::kAdd, {Value::integer(2), Value::integer(3)}).as_int(), 5);
  EXPECT_EQ(prim(Op::kSub, {Value::integer(2), Value::integer(3)}).as_int(), -1);
  EXPECT_EQ(prim(Op::kMul, {Value::integer(4), Value::integer(3)}).as_int(), 12);
  EXPECT_EQ(prim(Op::kDiv, {Value::integer(7), Value::integer(2)}).as_int(), 3);
  EXPECT_EQ(prim(Op::kDiv, {Value::integer(7), Value::integer(0)}).as_int(), 0);
  EXPECT_EQ(prim(Op::kMod, {Value::integer(7), Value::integer(3)}).as_int(), 1);
  EXPECT_EQ(prim(Op::kMod, {Value::integer(7), Value::integer(0)}).as_int(), 0);
  EXPECT_EQ(prim(Op::kNeg, {Value::integer(5)}).as_int(), -5);
  EXPECT_EQ(prim(Op::kMin, {Value::integer(2), Value::integer(9)}).as_int(), 2);
  EXPECT_EQ(prim(Op::kMax, {Value::integer(2), Value::integer(9)}).as_int(), 9);
}

TEST(Prims, ComparisonsAndLogic) {
  EXPECT_EQ(prim(Op::kLt, {Value::integer(1), Value::integer(2)}).as_int(), 1);
  EXPECT_EQ(prim(Op::kGe, {Value::integer(1), Value::integer(2)}).as_int(), 0);
  EXPECT_EQ(prim(Op::kEq, {Value::integer(3), Value::integer(3)}).as_int(), 1);
  EXPECT_EQ(prim(Op::kNe, {Value::integer(3), Value::integer(3)}).as_int(), 0);
  EXPECT_EQ(prim(Op::kAnd, {Value::integer(1), Value::integer(0)}).as_int(), 0);
  EXPECT_EQ(prim(Op::kOr, {Value::integer(1), Value::integer(0)}).as_int(), 1);
  EXPECT_EQ(prim(Op::kNot, {Value::integer(0)}).as_int(), 1);
}

TEST(Prims, Bitwise) {
  EXPECT_EQ(prim(Op::kBAnd, {Value::integer(0b1100), Value::integer(0b1010)})
                .as_int(),
            0b1000);
  EXPECT_EQ(prim(Op::kBOr, {Value::integer(0b1100), Value::integer(0b1010)})
                .as_int(),
            0b1110);
  EXPECT_EQ(prim(Op::kBXor, {Value::integer(0b1100), Value::integer(0b1010)})
                .as_int(),
            0b0110);
  EXPECT_EQ(prim(Op::kBNot, {Value::integer(0)}).as_int(), -1);
  EXPECT_EQ(prim(Op::kShl, {Value::integer(1), Value::integer(4)}).as_int(),
            16);
  EXPECT_EQ(prim(Op::kShr, {Value::integer(16), Value::integer(4)}).as_int(),
            1);
}

TEST(Prims, BurnCostsItsOperand) {
  std::uint64_t cost = 0;
  EXPECT_EQ(prim(Op::kBurn, {Value::integer(250)}, &cost).as_int(), 250);
  EXPECT_EQ(cost, 250U);
  cost = 0;
  (void)prim(Op::kBurn, {Value::integer(0)}, &cost);
  EXPECT_EQ(cost, 1U);  // floor of one tick
}

TEST(Prims, ListOps) {
  const Value xs = Value::list({5, 1, 4});
  EXPECT_EQ(prim(Op::kLen, {xs}).as_int(), 3);
  EXPECT_EQ(prim(Op::kHead, {xs}).as_int(), 5);
  EXPECT_EQ(prim(Op::kTail, {xs}), Value::list({1, 4}));
  EXPECT_EQ(prim(Op::kSum, {xs}).as_int(), 10);
  EXPECT_EQ(prim(Op::kTake, {xs, Value::integer(2)}), Value::list({5, 1}));
  EXPECT_EQ(prim(Op::kTake, {xs, Value::integer(99)}), xs);
  EXPECT_EQ(prim(Op::kDrop, {xs, Value::integer(1)}), Value::list({1, 4}));
  EXPECT_EQ(prim(Op::kDrop, {xs, Value::integer(-5)}), xs);
  EXPECT_EQ(prim(Op::kAppend, {Value::list({1}), Value::list({2, 3})}),
            Value::list({1, 2, 3}));
  EXPECT_EQ(prim(Op::kCons, {Value::integer(0), Value::list({1})}),
            Value::list({0, 1}));
  EXPECT_EQ(prim(Op::kMerge, {Value::list({1, 3}), Value::list({2, 4})}),
            Value::list({1, 2, 3, 4}));
  EXPECT_EQ(prim(Op::kNth, {xs, Value::integer(1)}).as_int(), 1);
  EXPECT_EQ(prim(Op::kIota, {Value::integer(4)}), Value::list({0, 1, 2, 3}));
  EXPECT_EQ(prim(Op::kIota, {Value::integer(-2)}), Value::list({}));
  EXPECT_EQ(prim(Op::kFiltLt, {xs, Value::integer(4)}), Value::list({1}));
  EXPECT_EQ(prim(Op::kFiltGe, {xs, Value::integer(4)}), Value::list({5, 4}));
}

TEST(Prims, DomainErrors) {
  EXPECT_THROW(prim(Op::kHead, {Value::list({})}), std::domain_error);
  EXPECT_THROW(prim(Op::kTail, {Value::list({})}), std::domain_error);
  EXPECT_THROW(prim(Op::kNth, {Value::list({1}), Value::integer(5)}),
               std::domain_error);
  EXPECT_THROW(prim(Op::kAdd, {Value::integer(1)}), std::domain_error);
  EXPECT_THROW(prim(Op::kAdd, {Value::list({1}), Value::integer(1)}),
               std::logic_error);
}

TEST(Prims, ArityTable) {
  EXPECT_EQ(op_arity(Op::kBurn), 1);
  EXPECT_EQ(op_arity(Op::kAdd), 2);
  EXPECT_EQ(op_arity(Op::kIota), 1);
  EXPECT_EQ(op_arity(Op::kMerge), 2);
}

// ---------------------------------------------------------------------------
// Program validation
// ---------------------------------------------------------------------------

TEST(Program, ValidateCatchesBadArgIndex) {
  Program p;
  FunctionBuilder b("f", 1);
  const ExprId root = b.arg(3);  // arity is 1
  const FuncId fn = p.add_function(std::move(b).build(root));
  p.set_entry(fn, {Value::integer(0)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Program, ValidateCatchesCallArityMismatch) {
  Program p;
  FunctionBuilder b("f", 1);
  const ExprId root = b.call(0, {b.arg(0), b.arg(0)});  // self takes 1 arg
  const FuncId fn = p.add_function(std::move(b).build(root));
  p.set_entry(fn, {Value::integer(0)});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Program, ValidateCatchesEntryArityMismatch) {
  Program p = programs::fib(5);
  p.set_entry(p.entry(), {});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Program, FindByName) {
  Program p = programs::nqueens(4);
  EXPECT_TRUE(p.find("solve").has_value());
  EXPECT_TRUE(p.find("scan").has_value());
  EXPECT_FALSE(p.find("missing").has_value());
}

TEST(Program, FunctionAtWalksCallSitesFromTheEntry) {
  // main calls leaf at one site and mid at another; mid calls leaf.
  Program p;
  FunctionBuilder leaf("leaf", 0);
  const ExprId one = leaf.constant(1);
  const FuncId leaf_fn = p.add_function(std::move(leaf).build(one));
  FunctionBuilder mid("mid", 0);
  const ExprId mid_site = mid.call(leaf_fn, {});
  const FuncId mid_fn = p.add_function(std::move(mid).build(mid_site));
  FunctionBuilder main("main", 0);
  const ExprId to_leaf = main.call(leaf_fn, {});
  const ExprId to_mid = main.call(mid_fn, {});
  const ExprId body = main.add(to_leaf, to_mid);
  p.set_entry(p.add_function(std::move(main).build(body)), {});
  p.validate();

  EXPECT_EQ(p.function_at({}).name, "main");
  const std::vector<ExprId> leaf_path = {to_leaf};
  EXPECT_EQ(p.function_at(leaf_path).name, "leaf");
  const std::vector<ExprId> mid_path = {to_mid};
  EXPECT_EQ(p.function_at(mid_path).name, "mid");
  const std::vector<ExprId> deep_path = {to_mid, mid_site};
  EXPECT_EQ(p.function_at(deep_path).name, "leaf");
  // A site that is no Call node (the add), or past the body's end.
  const std::vector<ExprId> not_a_call = {body};
  EXPECT_THROW((void)p.function_at(not_a_call), std::invalid_argument);
  const std::vector<ExprId> out_of_range = {to_mid, 99};
  EXPECT_THROW((void)p.function_at(out_of_range), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Interpreter vs known answers
// ---------------------------------------------------------------------------

TEST(Interpreter, Fib) {
  for (std::int64_t n : {0, 1, 2, 5, 10, 15}) {
    EXPECT_EQ(reference_answer(programs::fib(n)).as_int(), fib_value(n))
        << "fib(" << n << ")";
  }
}

TEST(Interpreter, FibLeafWorkDoesNotChangeAnswer) {
  EXPECT_EQ(reference_answer(programs::fib(10, 500)).as_int(), fib_value(10));
}

TEST(Interpreter, Binomial) {
  EXPECT_EQ(reference_answer(programs::binomial(6, 3)).as_int(),
            binom_value(6, 3));
  EXPECT_EQ(reference_answer(programs::binomial(10, 2)).as_int(), 45);
  EXPECT_EQ(reference_answer(programs::binomial(5, 0)).as_int(), 1);
  EXPECT_EQ(reference_answer(programs::binomial(5, 5)).as_int(), 1);
}

TEST(Interpreter, TreeSumCountsLeaves) {
  // Answer = number of leaves = fanout^depth.
  EXPECT_EQ(reference_answer(programs::tree_sum(3, 2)).as_int(), 8);
  EXPECT_EQ(reference_answer(programs::tree_sum(2, 4)).as_int(), 16);
  EXPECT_EQ(reference_answer(programs::tree_sum(0, 3)).as_int(), 1);
}

TEST(Interpreter, MergesortSorts) {
  const Program p = programs::mergesort(64, 7);
  const Value sorted = reference_answer(p);
  const auto& xs = sorted.as_list();
  EXPECT_EQ(xs.size(), 64U);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  // Same multiset as the entry argument.
  auto input = p.entry_args()[0].as_list();
  std::sort(input.begin(), input.end());
  EXPECT_EQ(xs, input);
}

TEST(Interpreter, QuicksortSortsAndMatchesMergesort) {
  const Program q = programs::quicksort(64, 7);
  const Program m = programs::mergesort(64, 7);
  EXPECT_EQ(reference_answer(q), reference_answer(m));
}

namespace {
std::int64_t tak_ref(std::int64_t x, std::int64_t y, std::int64_t z) {
  if (y >= x) return z;
  return tak_ref(tak_ref(x - 1, y, z), tak_ref(y - 1, z, x),
                 tak_ref(z - 1, x, y));
}
}  // namespace

TEST(Interpreter, TakMatchesReference) {
  EXPECT_EQ(reference_answer(programs::tak(8, 4, 0)).as_int(),
            tak_ref(8, 4, 0));
  EXPECT_EQ(reference_answer(programs::tak(6, 3, 1)).as_int(),
            tak_ref(6, 3, 1));
  // Base case: y >= x returns z without recursion.
  EXPECT_EQ(reference_answer(programs::tak(1, 5, 9)).as_int(), 9);
  EXPECT_EQ(reference_stats(programs::tak(1, 5, 9)).calls, 1U);
}

TEST(Interpreter, MapReduceSumsIota) {
  // sum(0..n-1) = n(n-1)/2 regardless of chunking.
  for (std::uint32_t chunks : {1U, 3U, 7U, 16U}) {
    EXPECT_EQ(reference_answer(programs::map_reduce(100, chunks)).as_int(),
              100 * 99 / 2)
        << chunks << " chunks";
  }
  // Chunk count controls the call-tree width.
  EXPECT_EQ(reference_stats(programs::map_reduce(100, 8)).calls, 9U);
}

TEST(Interpreter, MapReduceWorkScaleDoesNotChangeAnswer) {
  EXPECT_EQ(reference_answer(programs::map_reduce(64, 4, 10)).as_int(),
            64 * 63 / 2);
  // Higher work scale burns more abstract ticks.
  EXPECT_GT(reference_stats(programs::map_reduce(64, 4, 10)).total_work,
            reference_stats(programs::map_reduce(64, 4, 1)).total_work);
}

TEST(Interpreter, NQueensKnownCounts) {
  for (std::uint32_t n : {1U, 4U, 5U, 6U}) {
    EXPECT_EQ(reference_answer(programs::nqueens(n)).as_int(),
              nqueens_value(n))
        << n << "-queens";
  }
}

TEST(Interpreter, StatsCountCalls) {
  // fib call tree size: calls(n) = 2*fib(n+1)-1.
  EvalStats stats;
  const Program p = programs::fib(10);  // Interpreter holds a reference
  Interpreter interp(p);
  (void)interp.run(stats);
  EXPECT_EQ(stats.calls,
            static_cast<std::uint64_t>(2 * fib_value(11) - 1));
  EXPECT_EQ(stats.max_depth, 10U);  // fib(10) -> fib(9) -> ... -> fib(1)
  EXPECT_GT(stats.total_work, 0U);
}

TEST(Interpreter, DepthLimitGuards) {
  // f(n) = f(n+1): infinite recursion must be caught.
  Program p;
  FunctionBuilder b("loop", 1);
  const ExprId root = b.call(0, {b.add(b.arg(0), b.constant(1))});
  const FuncId fn = p.add_function(std::move(b).build(root));
  p.set_entry(fn, {Value::integer(0)});
  Interpreter interp(p, 1000);
  EXPECT_THROW((void)interp.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Scripted trees
// ---------------------------------------------------------------------------

TEST(ScriptedTree, AnswerIsTotalWork) {
  const std::vector<programs::ScriptedNode> nodes = {
      {"root", {"a", "b"}, 10, -1},
      {"a", {}, 20, -1},
      {"b", {"c"}, 30, -1},
      {"c", {}, 40, -1},
  };
  const Program p = programs::scripted_tree(nodes);
  EXPECT_EQ(reference_answer(p).as_int(),
            programs::scripted_tree_answer(nodes));
  EXPECT_EQ(reference_stats(p).calls, 4U);
}

TEST(ScriptedTree, RejectsUnknownChild) {
  EXPECT_THROW(
      programs::scripted_tree({{"root", {"ghost"}, 1, -1}}),
      std::invalid_argument);
}

TEST(ScriptedTree, RejectsDuplicateName) {
  EXPECT_THROW(
      programs::scripted_tree({{"x", {}, 1, -1}, {"x", {}, 1, -1}}),
      std::invalid_argument);
}

TEST(Figure1, TreeShapeMatchesPaper) {
  const Program p = programs::figure1_tree();
  const EvalStats stats = reference_stats(p);
  EXPECT_EQ(stats.calls, 17U);  // 17 tasks: A1..A5, B1..B7, C1..C4, D1..D5
  // Answer: 17 nodes x 60 work.
  EXPECT_EQ(reference_answer(p).as_int(), 17 * 60);
  // Deepest chain: A1-C1-B2-A2-D1-C4-B5 = depth 7.
  EXPECT_EQ(stats.max_depth, 7U);
  // Pins follow the name prefix (A=0, B=1, C=2, D=3).
  for (const auto& node : programs::figure1_nodes()) {
    const auto fn = p.find(node.name);
    ASSERT_TRUE(fn.has_value());
    EXPECT_EQ(p.function(*fn).pinned_processor, node.name[0] - 'A');
  }
}

}  // namespace
}  // namespace splice::lang
