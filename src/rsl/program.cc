#include "rsl/program.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <memory>

#include "common/strings.h"

namespace harmony::rsl {

namespace {

// Process-wide, bumped by every thread that evaluates expressions (each
// server, test or bench thread driving a core); relaxed ordering is fine
// for a monotonic stats counter.
std::atomic<uint64_t> g_expr_evaluations{0};

// Compile-time value: mirrors the tree-walk evaluator's EValue so the
// constant folder reproduces its semantics (including string truthiness
// and lazy numeric conversion) exactly.
struct CVal {
  bool is_number = true;
  double number = 0.0;
  std::string text;

  static CVal num(double v) { return CVal{true, v, {}}; }
  static CVal str(std::string s) { return CVal{false, 0.0, std::move(s)}; }

  bool truthy() const {
    if (is_number) return number != 0.0;
    return !text.empty() && text != "0" && text != "false" && text != "no";
  }
};

std::string cval_as_string(const CVal& value) {
  return value.is_number ? format_number(value.number) : value.text;
}

Result<double> cval_to_number(const CVal& value) {
  if (value.is_number) return value.number;
  double parsed = 0;
  if (parse_double(value.text, &parsed)) return parsed;
  return Err<double>(ErrorCode::kEvalError,
                     "expected a number, got \"" + value.text + "\"");
}

bool string_truthy(const std::string& text) {
  return !text.empty() && text != "0" && text != "false" && text != "no";
}

}  // namespace

uint64_t expr_evaluations() {
  return g_expr_evaluations.load(std::memory_order_relaxed);
}
void bump_expr_evaluations() {
  g_expr_evaluations.fetch_add(1, std::memory_order_relaxed);
}

// Domain errors carry the `expr "<source>": ` prefix like fail() does.
Result<double> Program::apply_builtin(Func func, const double* args,
                                      size_t argc, const std::string& source) {
  auto fail = [&](const std::string& message) {
    return Err<double>(ErrorCode::kEvalError,
                       "expr \"" + source + "\": " + message);
  };
  switch (func) {
    case Func::kAbs: return std::fabs(args[0]);
    case Func::kSqrt:
      if (args[0] < 0) return fail("sqrt of negative number");
      return std::sqrt(args[0]);
    case Func::kExp: return std::exp(args[0]);
    case Func::kLog:
      if (args[0] <= 0) return fail("log of non-positive number");
      return std::log(args[0]);
    case Func::kLog10:
      if (args[0] <= 0) return fail("log10 of non-positive number");
      return std::log10(args[0]);
    case Func::kFloor: return std::floor(args[0]);
    case Func::kCeil: return std::ceil(args[0]);
    case Func::kRound: return std::round(args[0]);
    case Func::kInt: return std::trunc(args[0]);
    case Func::kPow: return std::pow(args[0], args[1]);
    case Func::kFmod:
      if (args[1] == 0) return fail("fmod by zero");
      return std::fmod(args[0], args[1]);
    case Func::kMin: {
      double acc = args[0];
      for (size_t i = 0; i < argc; ++i) acc = std::min(acc, args[i]);
      return acc;
    }
    case Func::kMax: {
      double acc = args[0];
      for (size_t i = 0; i < argc; ++i) acc = std::max(acc, args[i]);
      return acc;
    }
  }
  return fail("unknown function");  // unreachable
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------
//
// A recursive-descent pass over the same grammar as ExprParser
// (expr.cc), emitting postfix code instead of evaluating. The scanner
// helpers (match, match_word, parse_identifier, ...) are copied
// verbatim so that compilability is exactly "the tree-walk would not
// hit a syntax error": anything this compiler rejects falls back to the
// tree-walk, anything it accepts must evaluate identically.
//
// Each compile_* method appends code for one subexpression and pushes
// exactly one CEntry describing it. finish() completes an operator over
// the top N entries:
//   - all operands constant  -> fold now; a fold error becomes a kFail
//     instruction ("poisoned": execution deterministically errors),
//   - any operand poisoned   -> code after the first poisoned operand
//     can never execute and is truncated; no operator is emitted,
//   - otherwise              -> the operator instruction is emitted.
// Poisoning preserves error ORDER: operands before the first poisoned
// one keep their code, so a runtime error there (unresolvable name)
// still fires first, exactly as the tree-walk's parse-order evaluation
// would report it.
class Compiler {
 public:
  explicit Compiler(std::string_view text) : text_(text) {
    program_.source_ = std::string(text);
  }

  Result<Program> compile() {
    auto status = compile_ternary();
    if (!status.ok()) return Err<Program>(status.error().code,
                                          status.error().message);
    skip_space();
    if (pos_ < text_.size()) {
      return Err<Program>(ErrorCode::kParseError,
                          str_format("unexpected character '%c' at offset %zu",
                                     text_[pos_], pos_));
    }
    HARMONY_ASSERT(cstack_.size() == 1);
    program_.max_stack_ = compute_max_stack();
    return std::move(program_);
  }

 private:
  using Op = Program::Op;
  using Func = Program::Func;
  using Inst = Program::Inst;

  // Compile-time description of the value the code so far leaves on the
  // stack for one subexpression.
  struct CEntry {
    size_t code_start = 0;  // first instruction belonging to this value
    bool is_const = false;  // folded to `value` (no reads, no errors)
    bool poisoned = false;  // evaluation deterministically errors (kFail)
    bool numeric = false;   // statically known to be a number at runtime
    CVal value;
  };

  Status fail(const std::string& message) const {
    return Status(ErrorCode::kParseError,
                  "expr \"" + std::string(text_) + "\": " + message);
  }
  std::string prefixed(const std::string& message) const {
    return "expr \"" + std::string(text_) + "\": " + message;
  }

  // --- scanner: verbatim from ExprParser ------------------------------

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool match(std::string_view token) {
    skip_space();
    if (text_.substr(pos_).size() < token.size()) return false;
    if (text_.substr(pos_, token.size()) != token) return false;
    char next = pos_ + token.size() < text_.size() ? text_[pos_ + token.size()] : '\0';
    if ((token == "<" || token == ">") && next == '=') return false;
    if (token == "*" && next == '*') return false;
    if (token == "=") return false;  // only '==' is valid
    if (token == "!" && next == '=') return false;
    pos_ += token.size();
    return true;
  }

  bool match_word(std::string_view word) {
    skip_space();
    if (text_.substr(pos_, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }

  bool peek_is(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  std::string parse_identifier() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == ':')) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  // --- grammar --------------------------------------------------------

  Status compile_ternary() {
    auto status = compile_or();
    if (!status.ok()) return status;
    skip_space();
    if (!match("?")) return status;
    status = compile_ternary();
    if (!status.ok()) return status;
    skip_space();
    if (!match(":")) return fail("expected ':' in ternary");
    status = compile_ternary();
    if (!status.ok()) return status;
    finish(Inst{Op::kSelect}, 3);
    return Status::Ok();
  }

  Status compile_or() {
    auto status = compile_and();
    if (!status.ok()) return status;
    while (match("||")) {
      status = compile_and();
      if (!status.ok()) return status;
      finish(Inst{Op::kOr}, 2);
    }
    return Status::Ok();
  }

  Status compile_and() {
    auto status = compile_equality();
    if (!status.ok()) return status;
    while (match("&&")) {
      status = compile_equality();
      if (!status.ok()) return status;
      finish(Inst{Op::kAnd}, 2);
    }
    return Status::Ok();
  }

  Status compile_equality() {
    auto status = compile_relational();
    if (!status.ok()) return status;
    while (true) {
      Op op;
      if (match("==") || match_word("eq")) {
        op = Op::kEq;
      } else if (match("!=") || match_word("ne")) {
        op = Op::kNe;
      } else {
        return Status::Ok();
      }
      status = compile_relational();
      if (!status.ok()) return status;
      finish(Inst{op}, 2);
    }
  }

  Status compile_relational() {
    auto status = compile_additive();
    if (!status.ok()) return status;
    while (true) {
      Op op;
      if (match("<=")) op = Op::kLe;
      else if (match(">=")) op = Op::kGe;
      else if (match("<")) op = Op::kLt;
      else if (match(">")) op = Op::kGt;
      else return Status::Ok();
      status = compile_additive();
      if (!status.ok()) return status;
      finish(Inst{op}, 2);
    }
  }

  Status compile_additive() {
    auto status = compile_multiplicative();
    if (!status.ok()) return status;
    while (true) {
      Op op;
      if (match("+")) op = Op::kAdd;
      else if (match("-")) op = Op::kSub;
      else return Status::Ok();
      status = compile_multiplicative();
      if (!status.ok()) return status;
      finish(Inst{op}, 2);
    }
  }

  Status compile_multiplicative() {
    auto status = compile_unary();
    if (!status.ok()) return status;
    while (true) {
      Op op;
      if (match("*")) op = Op::kMul;
      else if (match("/")) op = Op::kDiv;
      else if (match("%")) op = Op::kMod;
      else return Status::Ok();
      status = compile_unary();
      if (!status.ok()) return status;
      finish(Inst{op}, 2);
    }
  }

  Status compile_unary() {
    skip_space();
    if (match("!")) {
      auto status = compile_unary();
      if (!status.ok()) return status;
      finish(Inst{Op::kNot}, 1);
      return Status::Ok();
    }
    if (match("-")) {
      auto status = compile_unary();
      if (!status.ok()) return status;
      finish(Inst{Op::kNeg}, 1);
      return Status::Ok();
    }
    if (match("+")) return compile_unary();  // identity, even for strings
    return compile_power();
  }

  Status compile_power() {
    auto status = compile_primary();
    if (!status.ok()) return status;
    skip_space();
    if (pos_ + 1 < text_.size() && text_[pos_] == '*' &&
        text_[pos_ + 1] == '*') {
      pos_ += 2;
      status = compile_unary();  // right associative
      if (!status.ok()) return status;
      finish(Inst{Op::kPow}, 2);
    }
    return Status::Ok();
  }

  Status compile_primary() {
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end of expression");
    char c = text_[pos_];

    if (c == '(') {
      ++pos_;
      auto inner = compile_ternary();
      if (!inner.ok()) return inner;
      skip_space();
      if (!match(")")) return fail("expected ')'");
      return Status::Ok();
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      return compile_number();
    }

    if (c == '"' || c == '{') return compile_string(c);

    // [script] substitution depends on a command interpreter that only
    // exists at eval time; such expressions keep the tree-walk path.
    if (c == '[') return fail("script substitution is not compilable");

    if (c == '$') {
      ++pos_;
      std::string name = parse_identifier();
      if (name.empty()) return fail("expected variable name after '$'");
      Inst inst{Op::kLoadVar};
      inst.index = slot(program_.vars_, name);
      push_entry(inst, /*numeric=*/false);
      return Status::Ok();
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name = parse_identifier();
      skip_space();
      if (peek_is('(')) return compile_call(name);
      Inst inst{Op::kLoadName};
      inst.index = slot(program_.names_, name);
      push_entry(inst, /*numeric=*/false);
      return Status::Ok();
    }

    return fail(str_format("unexpected character '%c'", c));
  }

  Status compile_number() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    double value = 0;
    if (!parse_double(text_.substr(start, pos_ - start), &value)) {
      return fail("malformed number");
    }
    push_const_number(value);
    return Status::Ok();
  }

  Status compile_string(char open) {
    char close = open == '{' ? '}' : '"';
    ++pos_;
    std::string out;
    int depth = 1;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (open == '{') {
        if (c == '{') ++depth;
        if (c == '}' && --depth == 0) break;
      } else if (c == close) {
        break;
      }
      out.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing delimiter
    push_const_string(std::move(out));
    return Status::Ok();
  }

  Status compile_call(const std::string& name) {
    match("(");
    size_t argc = 0;
    skip_space();
    if (!peek_is(')')) {
      while (true) {
        auto status = compile_ternary();
        if (!status.ok()) return status;
        // The tree-walk converts each argument to a number right after
        // parsing it, BEFORE the next argument is parsed/resolved; an
        // explicit conversion per argument preserves that error order.
        finish_tonum();
        ++argc;
        skip_space();
        if (match(",")) continue;
        break;
      }
    }
    if (!match(")")) return fail("expected ')' after function arguments");
    if (argc > UINT16_MAX) return fail("too many function arguments");

    Func func;
    if (!lookup_builtin(name, argc, &func)) {
      // Arguments still evaluate (and may error) first, then the call
      // itself fails — the tree-walk's apply_function order.
      finish_fail(argc, ErrorCode::kEvalError,
                  prefixed("unknown function: " + name + "()"));
      return Status::Ok();
    }
    Inst inst{Op::kCall};
    inst.func = func;
    inst.argc = static_cast<uint16_t>(argc);
    finish(inst, argc);
    return Status::Ok();
  }

  static bool lookup_builtin(const std::string& name, size_t argc,
                             Func* out) {
    if (name == "abs" && argc == 1) { *out = Func::kAbs; return true; }
    if (name == "sqrt" && argc == 1) { *out = Func::kSqrt; return true; }
    if (name == "exp" && argc == 1) { *out = Func::kExp; return true; }
    if (name == "log" && argc == 1) { *out = Func::kLog; return true; }
    if (name == "log10" && argc == 1) { *out = Func::kLog10; return true; }
    if (name == "floor" && argc == 1) { *out = Func::kFloor; return true; }
    if (name == "ceil" && argc == 1) { *out = Func::kCeil; return true; }
    if (name == "round" && argc == 1) { *out = Func::kRound; return true; }
    if (name == "int" && argc == 1) { *out = Func::kInt; return true; }
    if (name == "pow" && argc == 2) { *out = Func::kPow; return true; }
    if (name == "fmod" && argc == 2) { *out = Func::kFmod; return true; }
    if (name == "min" && argc >= 1) { *out = Func::kMin; return true; }
    if (name == "max" && argc >= 1) { *out = Func::kMax; return true; }
    return false;
  }

  // --- emission + folding ---------------------------------------------

  void push_const_number(double value) {
    Inst inst{Op::kPushNum};
    inst.number = value;
    CEntry entry;
    entry.code_start = program_.ops_.size();
    entry.is_const = true;
    entry.numeric = true;
    entry.value = CVal::num(value);
    program_.ops_.push_back(inst);
    cstack_.push_back(std::move(entry));
  }

  void push_const_string(std::string text) {
    Inst inst{Op::kPushStr};
    inst.index = intern(text);
    CEntry entry;
    entry.code_start = program_.ops_.size();
    entry.is_const = true;
    entry.numeric = false;
    entry.value = CVal::str(std::move(text));
    program_.ops_.push_back(inst);
    cstack_.push_back(std::move(entry));
  }

  void push_entry(const Inst& inst, bool numeric) {
    CEntry entry;
    entry.code_start = program_.ops_.size();
    entry.numeric = numeric;
    program_.ops_.push_back(inst);
    cstack_.push_back(std::move(entry));
  }

  uint32_t intern(const std::string& text) {
    for (size_t i = 0; i < program_.strings_.size(); ++i) {
      if (program_.strings_[i].text == text) return static_cast<uint32_t>(i);
    }
    Program::StrLit lit;
    lit.text = text;
    lit.numeric = parse_double(text, &lit.number);
    lit.truthy = string_truthy(text);
    program_.strings_.push_back(std::move(lit));
    return static_cast<uint32_t>(program_.strings_.size() - 1);
  }

  static uint32_t slot(std::vector<std::string>& list,
                       const std::string& name) {
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] == name) return static_cast<uint32_t>(i);
    }
    list.push_back(name);
    return static_cast<uint32_t>(list.size() - 1);
  }

  // Replaces the top `count` entries with a poisoned entry whose code
  // ends at the first already-poisoned operand (nothing after it can
  // execute).
  void poison_propagate(size_t count) {
    size_t base = cstack_.size() - count;
    size_t first = base;
    while (!cstack_[first].poisoned) ++first;
    size_t code_end = first + 1 < cstack_.size()
                          ? cstack_[first + 1].code_start
                          : program_.ops_.size();
    program_.ops_.resize(code_end);
    CEntry entry;
    entry.code_start = cstack_[base].code_start;
    entry.poisoned = true;
    cstack_.resize(base);
    cstack_.push_back(std::move(entry));
  }

  // Replaces the top entry with a folded constant (or a poisoned kFail
  // when folding errored), discarding the entry's code.
  void replace_with_fold(size_t base, Result<CVal> folded) {
    size_t code_start = cstack_[base].code_start;
    program_.ops_.resize(code_start);
    cstack_.resize(base);
    if (folded.ok()) {
      if (folded.value().is_number) {
        push_const_number(folded.value().number);
      } else {
        push_const_string(std::move(folded).value().text);
      }
    } else {
      Inst inst{Op::kFail};
      inst.index = fail_slot(folded.error().code, folded.error().message);
      CEntry entry;
      entry.code_start = code_start;
      entry.poisoned = true;
      program_.ops_.push_back(inst);
      cstack_.push_back(std::move(entry));
    }
  }

  uint32_t fail_slot(ErrorCode code, std::string message) {
    program_.fails_.push_back({code, std::move(message)});
    return static_cast<uint32_t>(program_.fails_.size() - 1);
  }

  // Completes an operator over the top `count` operand entries.
  void finish(const Inst& inst, size_t count) {
    size_t base = cstack_.size() - count;
    bool any_poisoned = false;
    bool all_const = true;
    for (size_t i = base; i < cstack_.size(); ++i) {
      any_poisoned = any_poisoned || cstack_[i].poisoned;
      all_const = all_const && cstack_[i].is_const;
    }
    if (any_poisoned) {
      poison_propagate(count);
      return;
    }
    if (all_const) {
      replace_with_fold(base, fold_apply(inst, &cstack_[base], count));
      return;
    }
    bool numeric = inst.op != Op::kSelect
                       ? true
                       : (cstack_[base + 1].numeric && cstack_[base + 2].numeric);
    CEntry entry;
    entry.code_start = cstack_[base].code_start;
    entry.numeric = numeric;
    program_.ops_.push_back(inst);
    cstack_.resize(base);
    cstack_.push_back(std::move(entry));
  }

  // Emits arg code followed by an unconditional failure (unknown
  // function / bad arity, detected at compile time).
  void finish_fail(size_t count, ErrorCode code, std::string message) {
    size_t base = cstack_.size() - count;
    if (count > 0) {
      for (size_t i = base; i < cstack_.size(); ++i) {
        if (cstack_[i].poisoned) {
          poison_propagate(count);
          return;
        }
      }
    }
    size_t code_start = count > 0 ? cstack_[base].code_start
                                  : program_.ops_.size();
    Inst inst{Op::kFail};
    inst.index = fail_slot(code, std::move(message));
    CEntry entry;
    entry.code_start = code_start;
    entry.poisoned = true;
    program_.ops_.push_back(inst);
    cstack_.resize(base);
    cstack_.push_back(std::move(entry));
  }

  // Conversion of a function argument to a number (tree-walk does this
  // per argument at parse time).
  void finish_tonum() {
    CEntry& entry = cstack_.back();
    if (entry.poisoned) return;
    if (entry.is_const) {
      if (entry.value.is_number) return;
      auto converted = cval_to_number(entry.value);
      size_t base = cstack_.size() - 1;
      if (converted.ok()) {
        replace_with_fold(base, CVal::num(converted.value()));
      } else {
        replace_with_fold(
            base, Err<CVal>(converted.error().code, converted.error().message));
      }
      return;
    }
    if (entry.numeric) return;  // statically a number; no-op
    program_.ops_.push_back(Inst{Op::kToNum});
    entry.numeric = true;
  }

  Result<CVal> fold_apply(const Inst& inst, const CEntry* operands,
                          size_t count) {
    auto fail = [&](const std::string& message) {
      return Err<CVal>(ErrorCode::kEvalError, prefixed(message));
    };
    auto tonum2 = [&](double* a, double* b) -> Status {
      auto x = cval_to_number(operands[0].value);
      if (!x.ok()) return Status(x.error().code, x.error().message);
      auto y = cval_to_number(operands[1].value);
      if (!y.ok()) return Status(y.error().code, y.error().message);
      *a = x.value();
      *b = y.value();
      return Status::Ok();
    };
    switch (inst.op) {
      case Op::kAdd: case Op::kSub: case Op::kMul:
      case Op::kDiv: case Op::kMod: case Op::kPow:
      case Op::kLe: case Op::kGe: case Op::kLt: case Op::kGt: {
        double a = 0, b = 0;
        auto status = tonum2(&a, &b);
        if (!status.ok()) {
          return Err<CVal>(status.error().code, status.error().message);
        }
        switch (inst.op) {
          case Op::kAdd: return CVal::num(a + b);
          case Op::kSub: return CVal::num(a - b);
          case Op::kMul: return CVal::num(a * b);
          case Op::kDiv:
            if (b == 0.0) return fail("division by zero");
            return CVal::num(a / b);
          case Op::kMod:
            if (b == 0.0) return fail("division by zero");
            return CVal::num(std::fmod(a, b));
          case Op::kPow: return CVal::num(std::pow(a, b));
          case Op::kLe: return CVal::num(a <= b ? 1 : 0);
          case Op::kGe: return CVal::num(a >= b ? 1 : 0);
          case Op::kLt: return CVal::num(a < b ? 1 : 0);
          default: return CVal::num(a > b ? 1 : 0);
        }
      }
      case Op::kNeg: {
        auto x = cval_to_number(operands[0].value);
        if (!x.ok()) return Err<CVal>(x.error().code, x.error().message);
        return CVal::num(-x.value());
      }
      case Op::kNot:
        return CVal::num(operands[0].value.truthy() ? 0 : 1);
      case Op::kAnd:
        return CVal::num(
            (operands[0].value.truthy() && operands[1].value.truthy()) ? 1 : 0);
      case Op::kOr:
        return CVal::num(
            (operands[0].value.truthy() || operands[1].value.truthy()) ? 1 : 0);
      case Op::kEq: case Op::kNe: {
        const CVal& a = operands[0].value;
        const CVal& b = operands[1].value;
        bool equal;
        if (a.is_number && b.is_number) {
          equal = a.number == b.number;
        } else {
          equal = cval_as_string(a) == cval_as_string(b);
        }
        return CVal::num((equal == (inst.op == Op::kEq)) ? 1 : 0);
      }
      case Op::kSelect:
        return operands[0].value.truthy() ? operands[1].value
                                          : operands[2].value;
      case Op::kCall: {
        double args_buf[8];
        std::unique_ptr<double[]> heap;
        double* args = args_buf;
        if (count > 8) {
          heap.reset(new double[count]);
          args = heap.get();
        }
        for (size_t i = 0; i < count; ++i) {
          // finish_tonum already folded each argument to a number.
          HARMONY_ASSERT(operands[i].value.is_number);
          args[i] = operands[i].value.number;
        }
        auto result =
            Program::apply_builtin(inst.func, args, count, program_.source_);
        if (!result.ok()) {
          return Err<CVal>(result.error().code, result.error().message);
        }
        return CVal::num(result.value());
      }
      default:
        HARMONY_ASSERT(false);
        return CVal::num(0);
    }
  }

  uint32_t compute_max_stack() const {
    size_t depth = 0, max_depth = 0;
    for (const Inst& inst : program_.ops_) {
      switch (inst.op) {
        case Op::kPushNum: case Op::kPushStr:
        case Op::kLoadName: case Op::kLoadVar:
        case Op::kFail:  // never actually pushes; keeps the bound safe
          ++depth;
          break;
        case Op::kNeg: case Op::kNot: case Op::kToNum:
          break;
        case Op::kSelect:
          depth -= 2;
          break;
        case Op::kCall:
          depth -= inst.argc - 1;
          break;
        default:  // binary operators
          --depth;
          break;
      }
      max_depth = std::max(max_depth, depth);
    }
    return static_cast<uint32_t>(max_depth);
  }

  std::string_view text_;
  size_t pos_ = 0;
  Program program_;
  std::vector<CEntry> cstack_;
};

Result<Program> Program::compile(std::string_view text) {
  return Compiler(text).compile();
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

std::optional<double> Program::constant() const {
  if (ops_.size() == 1 && ops_[0].op == Op::kPushNum) {
    return ops_[0].number;
  }
  return std::nullopt;
}

const std::string& Program::str_text(
    int32_t idx, const std::vector<std::string>& scratch) const {
  size_t i = static_cast<size_t>(idx);
  if (i < strings_.size()) return strings_[i].text;
  return scratch[i - strings_.size()];
}

Result<double> Program::to_number(
    const Val& value, const std::vector<std::string>& scratch) const {
  if (value.str < 0) return value.num;
  size_t i = static_cast<size_t>(value.str);
  if (i < strings_.size()) {
    if (strings_[i].numeric) return strings_[i].number;
    return Err<double>(ErrorCode::kEvalError,
                       "expected a number, got \"" + strings_[i].text + "\"");
  }
  // Scratch strings exist precisely because parse_double failed on them
  // at load time.
  return Err<double>(
      ErrorCode::kEvalError,
      "expected a number, got \"" + scratch[i - strings_.size()] + "\"");
}

bool Program::truthy(const Val& value,
                     const std::vector<std::string>& scratch) const {
  if (value.str < 0) return value.num != 0.0;
  size_t i = static_cast<size_t>(value.str);
  if (i < strings_.size()) return strings_[i].truthy;
  return string_truthy(scratch[i - strings_.size()]);
}

Result<Program::Val> Program::run(const ExprContext& ctx,
                                  std::vector<std::string>& scratch) const {
  constexpr size_t kInlineStack = 16;
  Val inline_stack[kInlineStack];
  std::unique_ptr<Val[]> heap_stack;
  Val* stack = inline_stack;
  if (max_stack_ > kInlineStack) {
    heap_stack.reset(new Val[max_stack_]);
    stack = heap_stack.get();
  }
  size_t sp = 0;

  auto fail = [this](const std::string& message) {
    return Err<Val>(ErrorCode::kEvalError,
                    "expr \"" + source_ + "\": " + message);
  };
  auto raw_err = [](const Error& error) {
    return Err<Val>(error.code, error.message);
  };

  // Reused across $var / name loads; values short enough for SSO keep
  // the numeric path allocation-free.
  std::string var_buf;

  for (const Inst& inst : ops_) {
    switch (inst.op) {
      case Op::kPushNum:
        stack[sp++] = Val{inst.number, -1};
        break;
      case Op::kPushStr:
        stack[sp++] = Val{0, static_cast<int32_t>(inst.index)};
        break;
      case Op::kLoadName: {
        const std::string& name = names_[inst.index];
        if (ctx.name_lookup) {
          double value = 0;
          if (ctx.name_lookup(name, &value)) {
            stack[sp++] = Val{value, -1};
            break;
          }
        }
        if (ctx.var_lookup) {
          var_buf.clear();
          if (ctx.var_lookup(name, &var_buf)) {
            double number = 0;
            if (parse_double(var_buf, &number)) {
              stack[sp++] = Val{number, -1};
            } else {
              scratch.push_back(std::move(var_buf));
              var_buf.clear();
              stack[sp++] = Val{0, static_cast<int32_t>(strings_.size() +
                                                        scratch.size() - 1)};
            }
            break;
          }
        }
        return fail("cannot resolve identifier: " + name);
      }
      case Op::kLoadVar: {
        const std::string& name = vars_[inst.index];
        if (!ctx.var_lookup) return fail("no variable context for $" + name);
        var_buf.clear();
        if (!ctx.var_lookup(name, &var_buf)) {
          return fail("no such variable: " + name);
        }
        double number = 0;
        if (parse_double(var_buf, &number)) {
          stack[sp++] = Val{number, -1};
        } else {
          scratch.push_back(std::move(var_buf));
          var_buf.clear();
          stack[sp++] = Val{0, static_cast<int32_t>(strings_.size() +
                                                    scratch.size() - 1)};
        }
        break;
      }
      case Op::kAdd: case Op::kSub: case Op::kMul:
      case Op::kDiv: case Op::kMod: case Op::kPow:
      case Op::kLe: case Op::kGe: case Op::kLt: case Op::kGt: {
        // Left operand converts first: its "expected a number" error
        // wins, as in the tree-walk.
        auto a = to_number(stack[sp - 2], scratch);
        if (!a.ok()) return raw_err(a.error());
        auto b = to_number(stack[sp - 1], scratch);
        if (!b.ok()) return raw_err(b.error());
        double x = a.value(), y = b.value(), r = 0;
        switch (inst.op) {
          case Op::kAdd: r = x + y; break;
          case Op::kSub: r = x - y; break;
          case Op::kMul: r = x * y; break;
          case Op::kDiv:
            if (y == 0.0) return fail("division by zero");
            r = x / y;
            break;
          case Op::kMod:
            if (y == 0.0) return fail("division by zero");
            r = std::fmod(x, y);
            break;
          case Op::kPow: r = std::pow(x, y); break;
          case Op::kLe: r = x <= y ? 1 : 0; break;
          case Op::kGe: r = x >= y ? 1 : 0; break;
          case Op::kLt: r = x < y ? 1 : 0; break;
          default: r = x > y ? 1 : 0; break;
        }
        --sp;
        stack[sp - 1] = Val{r, -1};
        break;
      }
      case Op::kNeg: {
        auto a = to_number(stack[sp - 1], scratch);
        if (!a.ok()) return raw_err(a.error());
        stack[sp - 1] = Val{-a.value(), -1};
        break;
      }
      case Op::kNot:
        stack[sp - 1] = Val{truthy(stack[sp - 1], scratch) ? 0.0 : 1.0, -1};
        break;
      case Op::kAnd: case Op::kOr: {
        bool a = truthy(stack[sp - 2], scratch);
        bool b = truthy(stack[sp - 1], scratch);
        bool r = inst.op == Op::kAnd ? (a && b) : (a || b);
        --sp;
        stack[sp - 1] = Val{r ? 1.0 : 0.0, -1};
        break;
      }
      case Op::kEq: case Op::kNe: {
        const Val& a = stack[sp - 2];
        const Val& b = stack[sp - 1];
        bool equal;
        if (a.str < 0 && b.str < 0) {
          equal = a.num == b.num;
        } else if (a.str >= 0 && b.str >= 0) {
          equal = str_text(a.str, scratch) == str_text(b.str, scratch);
        } else if (a.str < 0) {
          equal = format_number(a.num) == str_text(b.str, scratch);
        } else {
          equal = str_text(a.str, scratch) == format_number(b.num);
        }
        --sp;
        stack[sp - 1] =
            Val{(equal == (inst.op == Op::kEq)) ? 1.0 : 0.0, -1};
        break;
      }
      case Op::kSelect: {
        bool cond = truthy(stack[sp - 3], scratch);
        stack[sp - 3] = cond ? stack[sp - 2] : stack[sp - 1];
        sp -= 2;
        break;
      }
      case Op::kToNum: {
        auto a = to_number(stack[sp - 1], scratch);
        if (!a.ok()) return raw_err(a.error());
        stack[sp - 1] = Val{a.value(), -1};
        break;
      }
      case Op::kCall: {
        size_t argc = inst.argc;
        double args_buf[8];
        std::unique_ptr<double[]> heap_args;
        double* args = args_buf;
        if (argc > 8) {
          heap_args.reset(new double[argc]);
          args = heap_args.get();
        }
        for (size_t i = 0; i < argc; ++i) {
          // kToNum (or folding) guaranteed numbers on the stack.
          args[i] = stack[sp - argc + i].num;
        }
        auto result = apply_builtin(inst.func, args, argc, source_);
        if (!result.ok()) return raw_err(result.error());
        sp -= argc - 1;
        stack[sp - 1] = Val{result.value(), -1};
        break;
      }
      case Op::kFail: {
        const Failure& failure = fails_[inst.index];
        return Err<Val>(failure.code, failure.message);
      }
    }
  }
  HARMONY_ASSERT(sp == 1);
  return stack[0];
}

Result<double> Program::eval_number(const ExprContext& ctx) const {
  std::vector<std::string> scratch;
  auto value = run(ctx, scratch);
  if (!value.ok()) {
    return Err<double>(value.error().code, value.error().message);
  }
  if (value.value().str < 0) return value.value().num;
  const std::string& text = str_text(value.value().str, scratch);
  double parsed = 0;
  if (parse_double(text, &parsed)) return parsed;
  return Err<double>(ErrorCode::kEvalError,
                     "expression result is not a number: \"" + text + "\"");
}

Result<std::string> Program::eval(const ExprContext& ctx) const {
  std::vector<std::string> scratch;
  auto value = run(ctx, scratch);
  if (!value.ok()) {
    return Err<std::string>(value.error().code, value.error().message);
  }
  if (value.value().str < 0) return format_number(value.value().num);
  return str_text(value.value().str, scratch);
}

}  // namespace harmony::rsl
