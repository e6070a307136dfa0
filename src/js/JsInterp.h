//===- js/JsInterp.h - MiniScript interpreter --------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree-walking interpreter for MiniScript with abstract cost accounting.
/// Every AST node evaluated counts as one "op"; host bindings can add
/// explicit work cycles (the `performWork(kilocycles)` builtin). The
/// browser converts (ops, explicit cycles) into the CPU cycle count of
/// the callback-execution pipeline stage, which is what the GreenWeb
/// runtime's performance model ultimately prices.
///
/// Script errors (including op-budget exhaustion and call-depth overflow)
/// never abort the process: they set an error state the embedder reads,
/// mirroring how browsers contain page script failures.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_JS_JSINTERP_H
#define GREENWEB_JS_JSINTERP_H

#include "js/JsAst.h"
#include "js/JsValue.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace greenweb::js {

/// Lexical scope: a variable map with a parent pointer.
class Environment {
public:
  explicit Environment(std::shared_ptr<Environment> Parent = nullptr)
      : Parent(std::move(Parent)) {}

  /// Defines (or redefines) a variable in this scope.
  void define(const std::string &Name, Value V);

  /// Looks up a variable through the scope chain; nullptr if unbound.
  Value *find(const std::string &Name);

  /// Assigns through the scope chain; returns false if unbound anywhere
  /// (MiniScript is strict: assignment never creates globals implicitly).
  bool assign(const std::string &Name, const Value &V);

  /// Drops every variable of this scope (interpreter teardown).
  void clear();

private:
  friend class Interpreter;

  std::map<std::string, Value> Vars;
  std::shared_ptr<Environment> Parent;
  /// Set once a closure has captured this scope (see
  /// Interpreter::CapturedEnvs).
  bool Captured = false;
};

/// A callable function value: either a native C++ function or a script
/// closure (AST body plus captured environment).
struct FunctionValue {
  std::string Name;
  /// Set for native functions.
  NativeFn Native;
  /// Set for script closures. Points into a Program the interpreter
  /// keeps alive.
  const FunctionLit *Decl = nullptr;
  std::shared_ptr<Environment> Closure;
};

/// Parses \p Source into an immutable program. On a parse error returns
/// null and sets \p Error to the text Interpreter::compile raises.
/// Evaluation never writes to a program, so one program can run in any
/// number of interpreters, concurrently.
std::shared_ptr<const Program> compileProgram(std::string_view Source,
                                              std::string &Error);

/// The MiniScript interpreter.
class Interpreter {
public:
  Interpreter();
  /// Empties every scope a closure captured. A function value stored in
  /// the scope its closure points at (any global function, any nested
  /// function naming itself) is a reference cycle that shared_ptr alone
  /// never frees.
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Global scope accessors.
  void defineGlobal(const std::string &Name, Value V);
  Value *findGlobal(const std::string &Name);
  const std::shared_ptr<Environment> &globalEnv() { return Globals; }

  /// Parses and executes \p Source at global scope. The program's AST is
  /// retained for the interpreter's lifetime (closures point into it).
  /// Returns false if parsing or execution failed; see lastError().
  bool runScript(std::string_view Source);

  /// Parses \p Source into a retained program without running it (for
  /// inline `on<event>="..."` handler attributes, which execute many
  /// times). Returns nullptr and sets the error state on parse failure.
  std::shared_ptr<const Program> compile(std::string_view Source);

  /// Executes a previously compiled program at global scope.
  bool runProgram(const Program &P);

  /// Parses \p Source as a single expression and evaluates it at global
  /// scope (inline `onclick="..."` handlers). Returns null on failure.
  Value evalExpression(std::string_view Source);

  /// Calls a function value with arguments. Sets \p Ok (when non-null)
  /// to false on error.
  Value callFunction(const Value &Fn, const std::vector<Value> &Args,
                     bool *Ok = nullptr);

  /// --- Error state ---
  bool hadError() const { return !ErrorMessage.empty(); }
  const std::string &lastError() const { return ErrorMessage; }
  void clearError() { ErrorMessage.clear(); }
  /// Raises a script error (also used by host bindings).
  Value raiseError(const std::string &Message);

  /// --- Cost accounting ---
  /// Abstract ops evaluated since construction or the last reset.
  uint64_t opsExecuted() const { return Ops; }
  /// Explicit work cycles added by bindings since the last reset.
  double explicitWorkCycles() const { return ExplicitCycles; }
  /// Adds explicit modeled work (performWork builtin).
  void addExplicitWorkCycles(double Cycles) { ExplicitCycles += Cycles; }
  /// Resets both accumulators (done by the browser around each callback).
  void resetCostCounters() {
    Ops = 0;
    ExplicitCycles = 0.0;
  }

  /// Safety limits: per-run op budget (default 20M) and call depth
  /// (default 200). Exceeding either raises a script error.
  void setOpLimit(uint64_t Limit) { OpLimit = Limit; }

  /// Messages printed via console.log (tests inspect these).
  std::vector<std::string> ConsoleLines;

private:
  friend class Evaluator;

  void noteCapturedEnv(const std::shared_ptr<Environment> &Env);

  std::shared_ptr<Environment> Globals;
  std::vector<std::shared_ptr<const Program>> LoadedPrograms;
  std::vector<ExprPtr> LoadedExpressions;
  /// Scopes captured by closures, each once, emptied by the destructor.
  /// Expired entries are pruned whenever the list doubles.
  std::vector<std::weak_ptr<Environment>> CapturedEnvs;
  size_t CapturedPruneAt = 64;

  std::string ErrorMessage;
  uint64_t Ops = 0;
  double ExplicitCycles = 0.0;
  uint64_t OpLimit = 20'000'000;
  unsigned CallDepth = 0;
  unsigned MaxCallDepth = 200;
};

} // namespace greenweb::js

#endif // GREENWEB_JS_JSINTERP_H
