//===- js/JsInterp.cpp - MiniScript interpreter ---------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "js/JsInterp.h"

#include "js/JsParser.h"
#include "profiling/Profiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace greenweb;
using namespace greenweb::js;

//===----------------------------------------------------------------------===//
// Environment
//===----------------------------------------------------------------------===//

void Environment::define(const std::string &Name, Value V) {
  Vars[Name] = std::move(V);
}

Value *Environment::find(const std::string &Name) {
  auto It = Vars.find(Name);
  if (It != Vars.end())
    return &It->second;
  if (Parent)
    return Parent->find(Name);
  return nullptr;
}

bool Environment::assign(const std::string &Name, const Value &V) {
  auto It = Vars.find(Name);
  if (It != Vars.end()) {
    It->second = V;
    return true;
  }
  if (Parent)
    return Parent->assign(Name, V);
  return false;
}

void Environment::clear() {
  // Destroy the values after the map is empty: a value's destructor may
  // free other scopes, never this one (the caller holds it).
  std::map<std::string, Value> Dead;
  Dead.swap(Vars);
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

namespace greenweb::js {

/// Statement execution outcome.
enum class Flow { Normal, Return };

/// Walks the AST. One Evaluator per top-level entry (script run or
/// function call chain); holds a reference to the shared interpreter
/// state.
class Evaluator {
public:
  explicit Evaluator(Interpreter &I) : I(I) {}

  /// Executes a statement list in \p Env. Returns false on error.
  bool execBlock(const std::vector<StmtPtr> &Stmts,
                 const std::shared_ptr<Environment> &Env, Flow &F,
                 Value &ReturnValue);

  bool exec(const Stmt &S, const std::shared_ptr<Environment> &Env, Flow &F,
            Value &ReturnValue);

  bool eval(const Expr &E, const std::shared_ptr<Environment> &Env,
            Value &Out);

  /// Invokes a function value. Public so Interpreter::callFunction can
  /// share the code path.
  bool invoke(const Value &Callee, const std::vector<Value> &Args,
              Value &Out, unsigned Line);

private:
  bool charge(unsigned Line) {
    if (++I.Ops <= I.OpLimit)
      return true;
    fail(Line, "script op budget exhausted (possible infinite loop)");
    return false;
  }
  bool fail(unsigned Line, const std::string &Message) {
    if (I.ErrorMessage.empty())
      I.ErrorMessage = formatString("line %u: %s", Line, Message.c_str());
    return false;
  }

  Interpreter &I;
};

} // namespace greenweb::js

bool Evaluator::eval(const Expr &E, const std::shared_ptr<Environment> &Env,
                     Value &Out) {
  if (!charge(E.line()))
    return false;

  switch (E.kind()) {
  case Expr::Kind::NumberLit:
    Out = Value::number(static_cast<const NumberLit &>(E).value());
    return true;
  case Expr::Kind::StringLit:
    Out = Value::string(static_cast<const StringLit &>(E).value());
    return true;
  case Expr::Kind::BoolLit:
    Out = Value::boolean(static_cast<const BoolLit &>(E).value());
    return true;
  case Expr::Kind::NullLit:
    Out = Value::null();
    return true;

  case Expr::Kind::Ident: {
    const auto &Id = static_cast<const Ident &>(E);
    if (Value *V = Env->find(Id.name())) {
      Out = *V;
      return true;
    }
    return fail(E.line(),
                formatString("undefined variable '%s'", Id.name().c_str()));
  }

  case Expr::Kind::Unary: {
    const auto &U = static_cast<const Unary &>(E);
    Value Operand;
    if (!eval(U.operand(), Env, Operand))
      return false;
    if (U.op() == Unary::Op::Neg)
      Out = Value::number(-Operand.asNumber());
    else
      Out = Value::boolean(!Operand.truthy());
    return true;
  }

  case Expr::Kind::Binary: {
    const auto &B = static_cast<const Binary &>(E);
    Value L, R;
    if (!eval(B.lhs(), Env, L) || !eval(B.rhs(), Env, R))
      return false;
    switch (B.op()) {
    case Binary::Op::Add:
      // String concatenation when either side is a string.
      if (L.isString() || R.isString()) {
        Out = Value::string(L.toDisplayString() + R.toDisplayString());
        return true;
      }
      Out = Value::number(L.asNumber() + R.asNumber());
      return true;
    case Binary::Op::Sub:
      Out = Value::number(L.asNumber() - R.asNumber());
      return true;
    case Binary::Op::Mul:
      Out = Value::number(L.asNumber() * R.asNumber());
      return true;
    case Binary::Op::Div:
      Out = Value::number(L.asNumber() / R.asNumber());
      return true;
    case Binary::Op::Mod:
      Out = Value::number(std::fmod(L.asNumber(), R.asNumber()));
      return true;
    case Binary::Op::Lt:
      Out = Value::boolean(L.asNumber() < R.asNumber());
      return true;
    case Binary::Op::Le:
      Out = Value::boolean(L.asNumber() <= R.asNumber());
      return true;
    case Binary::Op::Gt:
      Out = Value::boolean(L.asNumber() > R.asNumber());
      return true;
    case Binary::Op::Ge:
      Out = Value::boolean(L.asNumber() >= R.asNumber());
      return true;
    case Binary::Op::Eq:
      Out = Value::boolean(L.equals(R));
      return true;
    case Binary::Op::Ne:
      Out = Value::boolean(!L.equals(R));
      return true;
    }
    return fail(E.line(), "unknown binary operator");
  }

  case Expr::Kind::Logical: {
    const auto &L = static_cast<const Logical &>(E);
    Value Lhs;
    if (!eval(L.lhs(), Env, Lhs))
      return false;
    bool ShortCircuit = L.op() == Logical::Op::And ? !Lhs.truthy()
                                                   : Lhs.truthy();
    if (ShortCircuit) {
      Out = Lhs;
      return true;
    }
    return eval(L.rhs(), Env, Out);
  }

  case Expr::Kind::Conditional: {
    const auto &C = static_cast<const Conditional &>(E);
    Value Cond;
    if (!eval(C.cond(), Env, Cond))
      return false;
    return eval(Cond.truthy() ? C.thenExpr() : C.elseExpr(), Env, Out);
  }

  case Expr::Kind::Assign: {
    const auto &A = static_cast<const Assign &>(E);
    Value V;
    if (!eval(A.value(), Env, V))
      return false;
    const Expr &Target = A.target();
    if (Target.kind() == Expr::Kind::Ident) {
      const auto &Id = static_cast<const Ident &>(Target);
      if (!Env->assign(Id.name(), V))
        return fail(E.line(), formatString("assignment to undeclared "
                                           "variable '%s'",
                                           Id.name().c_str()));
      Out = V;
      return true;
    }
    assert(Target.kind() == Expr::Kind::Member &&
           "parser guarantees ident-or-member assignment target");
    const auto &M = static_cast<const Member &>(Target);
    Value Obj;
    if (!eval(M.object(), Env, Obj))
      return false;
    if (!Obj.isHost())
      return fail(E.line(), "property assignment on non-object value");
    if (!Obj.asHost()->setProperty(I, M.name(), V)) {
      if (I.hadError())
        return false;
      return fail(E.line(),
                  formatString("cannot set property '%s' on %s",
                               M.name().c_str(),
                               Obj.asHost()->hostClassName().c_str()));
    }
    Out = V;
    return true;
  }

  case Expr::Kind::Member: {
    const auto &M = static_cast<const Member &>(E);
    Value Obj;
    if (!eval(M.object(), Env, Obj))
      return false;
    if (Obj.isHost()) {
      Out = Obj.asHost()->getProperty(I, M.name());
      return !I.hadError();
    }
    if (Obj.isString() && M.name() == "length") {
      Out = Value::number(double(Obj.asString().size()));
      return true;
    }
    return fail(E.line(),
                formatString("property access '.%s' on non-object value",
                             M.name().c_str()));
  }

  case Expr::Kind::Call: {
    const auto &C = static_cast<const Call &>(E);
    Value Callee;
    if (!eval(C.callee(), Env, Callee))
      return false;
    std::vector<Value> Args;
    Args.reserve(C.args().size());
    for (const ExprPtr &ArgExpr : C.args()) {
      Value Arg;
      if (!eval(*ArgExpr, Env, Arg))
        return false;
      Args.push_back(std::move(Arg));
    }
    return invoke(Callee, Args, Out, E.line());
  }

  case Expr::Kind::FunctionLit: {
    const auto &F = static_cast<const FunctionLit &>(E);
    auto FV = std::make_shared<FunctionValue>();
    FV->Name = F.name().empty() ? "<anonymous>" : F.name();
    FV->Decl = &F;
    FV->Closure = Env;
    I.noteCapturedEnv(Env);
    Out = Value::function(std::move(FV));
    return true;
  }
  }
  return fail(E.line(), "unknown expression kind");
}

bool Evaluator::invoke(const Value &Callee, const std::vector<Value> &Args,
                       Value &Out, unsigned Line) {
  if (!Callee.isFunction())
    return fail(Line, "call of non-function value");
  const std::shared_ptr<FunctionValue> &Fn = Callee.asFunction();

  if (++I.CallDepth > I.MaxCallDepth) {
    --I.CallDepth;
    return fail(Line, "call stack overflow");
  }

  bool Ok = true;
  if (Fn->Native) {
    Out = Fn->Native(I, Args);
    Ok = !I.hadError();
  } else {
    assert(Fn->Decl && "function value with neither native nor AST body");
    auto Local = std::make_shared<Environment>(Fn->Closure);
    const std::vector<std::string> &Params = Fn->Decl->params();
    for (size_t P = 0; P < Params.size(); ++P)
      Local->define(Params[P], P < Args.size() ? Args[P] : Value::null());
    Flow F = Flow::Normal;
    Value ReturnValue;
    Ok = execBlock(Fn->Decl->body(), Local, F, ReturnValue);
    Out = F == Flow::Return ? ReturnValue : Value::null();
  }
  --I.CallDepth;
  return Ok;
}

bool Evaluator::exec(const Stmt &S, const std::shared_ptr<Environment> &Env,
                     Flow &F, Value &ReturnValue) {
  if (!charge(S.line()))
    return false;

  switch (S.kind()) {
  case Stmt::Kind::Expression: {
    Value Ignored;
    return eval(static_cast<const ExpressionStmt &>(S).expr(), Env, Ignored);
  }
  case Stmt::Kind::VarDecl: {
    const auto &D = static_cast<const VarDecl &>(S);
    Value Init;
    if (D.init() && !eval(*D.init(), Env, Init))
      return false;
    Env->define(D.name(), std::move(Init));
    return true;
  }
  case Stmt::Kind::Block: {
    auto Local = std::make_shared<Environment>(Env);
    return execBlock(static_cast<const Block &>(S).statements(), Local, F,
                     ReturnValue);
  }
  case Stmt::Kind::If: {
    const auto &IfStmt = static_cast<const If &>(S);
    Value Cond;
    if (!eval(IfStmt.cond(), Env, Cond))
      return false;
    if (Cond.truthy())
      return exec(IfStmt.thenStmt(), Env, F, ReturnValue);
    if (const Stmt *Else = IfStmt.elseStmt())
      return exec(*Else, Env, F, ReturnValue);
    return true;
  }
  case Stmt::Kind::While: {
    const auto &W = static_cast<const While &>(S);
    while (true) {
      Value Cond;
      if (!eval(W.cond(), Env, Cond))
        return false;
      if (!Cond.truthy())
        return true;
      if (!exec(W.body(), Env, F, ReturnValue))
        return false;
      if (F == Flow::Return)
        return true;
    }
  }
  case Stmt::Kind::For: {
    const auto &ForStmt = static_cast<const For &>(S);
    auto Local = std::make_shared<Environment>(Env);
    if (ForStmt.init() && !exec(*ForStmt.init(), Local, F, ReturnValue))
      return false;
    while (true) {
      if (const Expr *Cond = ForStmt.cond()) {
        Value CondValue;
        if (!eval(*Cond, Local, CondValue))
          return false;
        if (!CondValue.truthy())
          return true;
      }
      if (!exec(ForStmt.body(), Local, F, ReturnValue))
        return false;
      if (F == Flow::Return)
        return true;
      if (const Expr *Step = ForStmt.step()) {
        Value Ignored;
        if (!eval(*Step, Local, Ignored))
          return false;
      }
    }
  }
  case Stmt::Kind::Return: {
    const auto &R = static_cast<const Return &>(S);
    if (const Expr *E = R.expr()) {
      if (!eval(*E, Env, ReturnValue))
        return false;
    } else {
      ReturnValue = Value::null();
    }
    F = Flow::Return;
    return true;
  }
  }
  return fail(S.line(), "unknown statement kind");
}

bool Evaluator::execBlock(const std::vector<StmtPtr> &Stmts,
                          const std::shared_ptr<Environment> &Env, Flow &F,
                          Value &ReturnValue) {
  for (const StmtPtr &S : Stmts) {
    if (!exec(*S, Env, F, ReturnValue))
      return false;
    if (F == Flow::Return)
      return true;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

Interpreter::Interpreter() : Globals(std::make_shared<Environment>()) {
  // console.log is always available; it appends to ConsoleLines.
  class Console : public HostObject {
  public:
    std::string hostClassName() const override { return "Console"; }
    Value getProperty(Interpreter &, const std::string &Name) override {
      if (Name != "log")
        return Value::null();
      return makeNativeFunction(
          "log", [](Interpreter &In, const std::vector<Value> &Args) {
            std::string Linebuf;
            for (size_t A = 0; A < Args.size(); ++A) {
              if (A > 0)
                Linebuf += ' ';
              Linebuf += Args[A].toDisplayString();
            }
            In.ConsoleLines.push_back(std::move(Linebuf));
            return Value::null();
          });
    }
  };
  defineGlobal("console", Value::host(std::make_shared<Console>()));
}

Interpreter::~Interpreter() {
  for (const std::weak_ptr<Environment> &Captured : CapturedEnvs)
    if (std::shared_ptr<Environment> Env = Captured.lock())
      Env->clear();
  // A global holding a nested closure is a cycle through that closure's
  // scope chain, which clearing the captured scope alone leaves intact.
  Globals->clear();
}

void Interpreter::noteCapturedEnv(const std::shared_ptr<Environment> &Env) {
  if (Env->Captured)
    return;
  Env->Captured = true;
  if (CapturedEnvs.size() >= CapturedPruneAt) {
    std::erase_if(CapturedEnvs, [](const std::weak_ptr<Environment> &W) {
      return W.expired();
    });
    CapturedPruneAt = std::max<size_t>(64, 2 * CapturedEnvs.size());
  }
  CapturedEnvs.push_back(Env);
}

void Interpreter::defineGlobal(const std::string &Name, Value V) {
  Globals->define(Name, std::move(V));
}

Value *Interpreter::findGlobal(const std::string &Name) {
  return Globals->find(Name);
}

std::shared_ptr<const Program> js::compileProgram(std::string_view Source,
                                                  std::string &Error) {
  GW_PROF_SCOPE("js.compile");
  auto P = std::make_shared<const Program>(parseProgram(Source));
  if (P->hadErrors()) {
    Error = "parse error: " + P->Diagnostics.front();
    return nullptr;
  }
  return P;
}

bool Interpreter::runScript(std::string_view Source) {
  std::shared_ptr<const Program> P = compile(Source);
  if (!P)
    return false;
  return runProgram(*P);
}

std::shared_ptr<const Program> Interpreter::compile(std::string_view Source) {
  std::string Error;
  std::shared_ptr<const Program> P = compileProgram(Source, Error);
  if (!P) {
    ErrorMessage = std::move(Error);
    return nullptr;
  }
  LoadedPrograms.push_back(P);
  return P;
}

bool Interpreter::runProgram(const Program &P) {
  Evaluator Eval(*this);
  Flow F = Flow::Normal;
  Value ReturnValue;
  return Eval.execBlock(P.Statements, Globals, F, ReturnValue);
}

Value Interpreter::evalExpression(std::string_view Source) {
  std::string Error;
  ExprPtr E = parseExpression(Source, &Error);
  if (!E) {
    ErrorMessage = "parse error: " + Error;
    return Value::null();
  }
  const Expr *Raw = E.get();
  LoadedExpressions.push_back(std::move(E));
  Evaluator Eval(*this);
  Value Out;
  if (!Eval.eval(*Raw, Globals, Out))
    return Value::null();
  return Out;
}

Value Interpreter::callFunction(const Value &Fn,
                                const std::vector<Value> &Args, bool *Ok) {
  Evaluator Eval(*this);
  Value Out;
  bool Success = Eval.invoke(Fn, Args, Out, 0);
  if (Ok)
    *Ok = Success;
  return Success ? Out : Value::null();
}

Value Interpreter::raiseError(const std::string &Message) {
  if (ErrorMessage.empty())
    ErrorMessage = Message;
  return Value::null();
}
