"""Phase 3b: event-handler code generation.

Compiles checked ALDA handler bodies into Python source (the generated
artifact is kept on the compiled analysis for inspection and testing —
optimization effects such as hoisted lookups are visible in the text).
The emitted module defines::

    def make_handlers(RT):          # RT: AnalysisRuntime
        profile = RT.meter.profile
        M0 = RT.maps[0]             # one name per coalesced map group
        ld0_1 = M0.loaders[1]       # bound once per attach: field accessors
        x_vc_new = RT.bind_external('vc_new')   # ... and external functions
        def h_<handler>(loc, a_<param>...): ...
        def ad_<n>(ctx): ...        # clears the event memo, calls a handler
        ADAPTERS = [...]            # (position, hook_key, callable)
        return {...handlers...}, ADAPTERS

Cost accounting: every block bills its static operation count when
control reaches it (``profile.instr_cycles += n``; ALDA bodies are
loop-free, so the static count bounds the dynamic one).  Metadata
structure costs are billed by the runtime structures themselves.

Register hits: with lookup reduction on, a field read or write that is
dominated by an earlier billed access to the same slot variable and
field in the same handler is emitted as a plain ``slot[1][i]``.  The
earlier access put the field's line in the event memo, so the accessor
would have billed nothing; the plain form skips the call.  A read on the
right-hand side of ``&&``/``||`` or inside a branch dominates nothing
after it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.alda import ast_nodes as ast
from repro.alda.semantics import FuncInfo, ProgramInfo
from repro.alda.types import INTERNABLE as INTERNABLE_BASES
from repro.alda.types import SetValue
from repro.compiler.access_analysis import is_hoistable_key, key_repr
from repro.compiler.cse import plan_hoists
from repro.compiler.layout import LayoutPlan
from repro.errors import CompileError

_PY_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "//",
    "%": "%",
    "&": "&",
    "|": "|",
    "^": "^",
    "==": "==",
    "!=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _expr_ops(node) -> int:
    """Operation count of one expression tree."""
    total = 0
    if isinstance(node, (ast.Binary, ast.Unary, ast.MethodCall, ast.CallExpr)):
        total += 1
    if isinstance(node, ast.Binary):
        total += _expr_ops(node.lhs) + _expr_ops(node.rhs)
    elif isinstance(node, ast.Unary):
        total += _expr_ops(node.operand)
    elif isinstance(node, ast.Index):
        total += _expr_ops(node.key)
    elif isinstance(node, ast.MethodCall):
        if isinstance(node.base, ast.Index):
            total += _expr_ops(node.base.key)
        total += sum(_expr_ops(arg) for arg in node.args)
    elif isinstance(node, ast.CallExpr):
        total += sum(_expr_ops(arg) for arg in node.args)
    return total


def _shallow_ops(statements: List[ast.Stmt]) -> int:
    """Ops executed when control reaches this block, *excluding* nested
    branch bodies — those bill themselves on entry, so untaken paths cost
    nothing (the generated code is billed like the optimized straight-line
    code an optimizing compiler emits)."""
    total = 0
    for statement in statements:
        if isinstance(statement, ast.If):
            total += 1 + _expr_ops(statement.cond)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                total += _expr_ops(statement.value)
        elif isinstance(statement, ast.Assign):
            total += 1 + _expr_ops(statement.target.key) + _expr_ops(statement.value)
        elif isinstance(statement, ast.ExprStmt):
            total += _expr_ops(statement.expr)
    return total


class _Prelude:
    """Names ``make_handlers`` binds once per attach, in first-use order."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._bound: Set[str] = set()

    def bind(self, name: str, value: str) -> str:
        if name not in self._bound:
            self._bound.add(name)
            self.lines.append(f"    {name} = {value}")
        return name

    def loader(self, group_index: int, field_index: int) -> str:
        return self.bind(f"ld{group_index}_{field_index}",
                         f"M{group_index}.loaders[{field_index}]")

    def storer(self, group_index: int, field_index: int) -> str:
        return self.bind(f"st{group_index}_{field_index}",
                         f"M{group_index}.storers[{field_index}]")

    def external(self, name: str) -> str:
        return self.bind(f"x_{name}", f"RT.bind_external({name!r})")


class _HandlerCompiler:
    """Compiles one handler body to Python lines."""

    def __init__(
        self,
        func: FuncInfo,
        info: ProgramInfo,
        layout: LayoutPlan,
        group_of_map: Dict[str, int],
        cse_enabled: bool,
        prelude: _Prelude,
    ) -> None:
        self.func = func
        self.info = info
        self.layout = layout
        self.group_of_map = group_of_map
        self.cse_enabled = cse_enabled
        self.prelude = prelude
        self.lines: List[str] = []
        self._temp = 0
        self._assert_count = 0
        self.hoists, self.slot_index = plan_hoists(func, group_of_map, cse_enabled)
        #: locals holding a looked-up slot (hoisted or set-mutation temps)
        self.slot_vars: Set[str] = {hoist.var for hoist in self.hoists}
        #: (slot var, field) pairs billed on every path to the code being
        #: emitted: further accesses to them are register hits
        self.billed: Set[Tuple[str, int]] = set()

    # -- helpers -----------------------------------------------------------
    def _fresh_temp(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _group(self, map_name: str) -> Tuple[int, int]:
        group_index = self.group_of_map[map_name]
        field_index = self.layout.groups[group_index].field_index(map_name)
        return group_index, field_index

    def _slot_expr(self, map_name: str, key: ast.Expr, indent: int) -> str:
        """Slot for (map, key): a hoisted variable when CSE applies."""
        group_index, _ = self._group(map_name)
        if self.cse_enabled and is_hoistable_key(key):
            var = self.slot_index.get((group_index, key_repr(key)))
            if var is not None:
                return var
        return f"M{group_index}.lookup({self.expr(key, indent)})"

    def _billed_access(self, slot: str, field_index: int) -> bool:
        """True when this access is a register hit; otherwise records it
        (in emission order, which is evaluation order) as billed."""
        if not self.cse_enabled or slot not in self.slot_vars:
            return False
        if (slot, field_index) in self.billed:
            return True
        self.billed.add((slot, field_index))
        return False

    def _load(self, group_index: int, field_index: int, slot: str) -> str:
        if self._billed_access(slot, field_index):
            return f"{slot}[1][{field_index}]"
        return f"{self.prelude.loader(group_index, field_index)}({slot})"

    def _store(self, group_index: int, field_index: int, slot: str, value: str) -> str:
        """A store statement; ``value`` must already be compiled (its
        reads are evaluated before the store bills)."""
        if self._billed_access(slot, field_index):
            return f"{slot}[1][{field_index}] = {value}"
        return f"{self.prelude.storer(group_index, field_index)}({slot}, {value})"

    # -- expressions -------------------------------------------------------
    def expr(self, node: ast.Expr, indent: int) -> str:
        if isinstance(node, ast.Num):
            return repr(node.value)
        if isinstance(node, ast.Name):
            if node.ident in self.info.consts:
                return repr(self.info.consts[node.ident])
            return f"a_{node.ident}"
        if isinstance(node, ast.Unary):
            operand = self.expr(node.operand, indent)
            if node.op == "!":
                return f"(0 if {operand} else 1)"
            return f"(-{operand})"
        if isinstance(node, ast.Binary):
            return self._binary(node, indent)
        if isinstance(node, ast.Index):
            return self._index_read(node, indent)
        if isinstance(node, ast.MethodCall):
            return self._method_expr(node, indent)
        if isinstance(node, ast.CallExpr):
            return self._call_expr(node, indent)
        raise CompileError(f"cannot compile expression {node!r}")

    def _is_set_expr(self, node: ast.Expr) -> bool:
        if isinstance(node, ast.Index):
            value = self.info.maps[node.base].value
            return isinstance(value, SetValue)
        if isinstance(node, ast.MethodCall) and isinstance(node.base, ast.Name):
            if node.method == "get":
                value = self.info.maps[node.base.ident].value
                return isinstance(value, SetValue)
        if isinstance(node, ast.Binary):
            return self._is_set_expr(node.lhs)
        return False

    def _binary(self, node: ast.Binary, indent: int) -> str:
        lhs = self.expr(node.lhs, indent)
        if node.op in ("&&", "||"):
            # the right operand may not run: its reads dominate nothing
            billed = set(self.billed)
            rhs = self.expr(node.rhs, indent)
            self.billed = billed
            joiner = "and" if node.op == "&&" else "or"
            return f"({lhs} {joiner} {rhs})"
        rhs = self.expr(node.rhs, indent)
        if self._is_set_expr(node.lhs) and self._is_set_expr(node.rhs):
            method = "intersect" if node.op == "&" else "union"
            return f"{lhs}.{method}({rhs})"
        return f"({lhs} {_PY_BINOPS[node.op]} {rhs})"

    def _index_read(self, node: ast.Index, indent: int) -> str:
        group_index, field_index = self._group(node.base)
        slot = self._slot_expr(node.base, node.key, indent)
        return self._load(group_index, field_index, slot)

    def _method_expr(self, node: ast.MethodCall, indent: int) -> str:
        if isinstance(node.base, ast.Name):
            map_name = node.base.ident
            group_index, field_index = self._group(map_name)
            if node.method == "get":
                if len(node.args) == 2:
                    key = self.expr(node.args[0], indent)
                    length = self.expr(node.args[1], indent)
                    return f"M{group_index}.load_range({key}, {length}, {field_index})"
                slot = self._slot_expr(map_name, node.args[0], indent)
                return self._load(group_index, field_index, slot)
            raise CompileError(f"map.{node.method} has no value (statement only)")
        # set-valued entry methods
        group_index, field_index = self._group(node.base.base)
        slot = self._slot_expr(node.base.base, node.base.key, indent)
        value = self._load(group_index, field_index, slot)
        if node.method == "find":
            element = self.expr(node.args[0], indent)
            return f"(1 if {value}.contains({element}) else 0)"
        if node.method == "empty":
            return f"(1 if {value}.is_empty() else 0)"
        raise CompileError(f"set.{node.method} has no value (statement only)")

    def _call_expr(self, node: ast.CallExpr, indent: int) -> str:
        args = [self.expr(arg, indent) for arg in node.args]
        if node.func == "ptr_offset":
            return f"({args[0]} + {args[1]})"
        if node.func == "alda_assert":
            raise CompileError("alda_assert is a statement, not a value")
        if node.func in self.info.funcs:
            joined = ", ".join(["loc"] + args)
            return f"h_{node.func}({joined})"
        return f"{self.prelude.external(node.func)}({', '.join(args)})"

    # -- statements ----------------------------------------------------------
    def stmt(self, node: ast.Stmt, indent: int) -> None:
        if isinstance(node, ast.If):
            self.emit(indent, f"if {self.expr(node.cond, indent)}:")
            # a branch's accesses dominate nothing after the if
            billed = self.billed
            self.billed = set(billed)
            self.block(node.then_body, indent + 1)
            if node.else_body:
                self.billed = set(billed)
                self.emit(indent, "else:")
                self.block(node.else_body, indent + 1)
            self.billed = billed
            return
        if isinstance(node, ast.Return):
            if node.value is None:
                self.emit(indent, "return 0")
            else:
                self.emit(indent, f"return {self.expr(node.value, indent)}")
            return
        if isinstance(node, ast.Assign):
            group_index, field_index = self._group(node.target.base)
            slot = self._slot_expr(node.target.base, node.target.key, indent)
            value = self.expr(node.value, indent)
            self.emit(indent, self._store(group_index, field_index, slot, value))
            return
        if isinstance(node, ast.ExprStmt):
            self._expr_stmt(node.expr, indent)
            return
        raise CompileError(f"cannot compile statement {node!r}")

    def _expr_stmt(self, node: ast.Expr, indent: int) -> None:
        if isinstance(node, ast.MethodCall):
            if isinstance(node.base, ast.Name):
                self._map_method_stmt(node, indent)
                return
            if node.method in ("add", "remove"):
                self._set_mutation_stmt(node, indent)
                return
        if isinstance(node, ast.CallExpr) and node.func == "alda_assert":
            actual = self.expr(node.args[0], indent)
            expected = self.expr(node.args[1], indent)
            # Tag each assert site so two asserts in one handler at one
            # program location produce distinct (non-deduplicated) reports.
            self._assert_count += 1
            tag = f"{self.func.name}#{self._assert_count}"
            self.emit(
                indent,
                f"RT.alda_assert({actual}, {expected}, loc, {tag!r})",
            )
            return
        self.emit(indent, self.expr(node, indent))

    def _map_method_stmt(self, node: ast.MethodCall, indent: int) -> None:
        map_name = node.base.ident
        group_index, field_index = self._group(map_name)
        if node.method == "set":
            if len(node.args) == 3:
                # compiled in evaluation order (the register-hit
                # bookkeeping depends on it): key, length, then value
                key = self.expr(node.args[0], indent)
                length = self.expr(node.args[2], indent)
                value = self.expr(node.args[1], indent)
                self.emit(
                    indent,
                    f"M{group_index}.store_range({key}, {length}, {field_index}, {value})",
                )
            else:
                slot = self._slot_expr(map_name, node.args[0], indent)
                value = self.expr(node.args[1], indent)
                self.emit(indent, self._store(group_index, field_index, slot, value))
            return
        if node.method == "get":
            # value discarded; still perform the lookup for its cost
            self.emit(indent, self._method_expr(node, indent))
            return
        raise CompileError(f"unknown map method {node.method!r}")

    def _set_mutation_stmt(self, node: ast.MethodCall, indent: int) -> None:
        group_index, field_index = self._group(node.base.base)
        slot_expr = self._slot_expr(node.base.base, node.base.key, indent)
        temp = self._fresh_temp()
        if slot_expr in self.slot_vars:
            slot_var = slot_expr
        else:
            slot_var = temp + "_slot"
            self.emit(indent, f"{slot_var} = {slot_expr}")
            self.slot_vars.add(slot_var)
        self.emit(indent, f"{temp} = {self._load(group_index, field_index, slot_var)}")
        element = self.expr(node.args[0], indent)
        self.emit(indent, f"{temp}.{node.method}({element})")
        self.emit(indent, self._store(group_index, field_index, slot_var, temp))

    def block(self, statements: List[ast.Stmt], indent: int, bill: bool = True) -> None:
        if not statements:
            self.emit(indent, "pass")
            return
        if bill:
            ops = _shallow_ops(statements)
            if ops:
                self.emit(indent, f"profile.instr_cycles += {ops}")
        for statement in statements:
            self.stmt(statement, indent)

    # -- whole handler ----------------------------------------------------------
    def compile(self) -> List[str]:
        params = ", ".join(["loc"] + [f"a_{name}" for name in self.func.param_names])
        self.emit(1, f"def h_{self.func.name}({params}):")
        # Intern sparse-but-bounded values (lock addresses behind a bounded
        # lockid) into dense ids at the handler boundary, the way real
        # detectors hash locks into a fixed table.
        for param, ptype in zip(self.func.decl.params, self.func.param_types):
            if ptype.bound is not None and ptype.base in INTERNABLE_BASES:
                self.emit(
                    2,
                    f"a_{param.name} = RT.intern({ptype.name!r}, {ptype.bound}, "
                    f"a_{param.name})",
                )
        for hoist in self.hoists:
            key_src = self.expr(hoist.key_expr, 2)
            self.emit(
                2,
                f"{hoist.var} = M{hoist.group_index}.lookup({key_src})"
                f"  # {hoist.key_repr}",
            )
        self.block(self.func.decl.body, 2)
        self.emit(1, "")
        return self.lines


def _adapter_arg(arg: ast.CallArg) -> str:
    if arg.base == "p":
        if arg.metadata or arg.sizeof:
            raise CompileError("$p cannot take .m or sizeof")
        return "*ctx.ops"
    if arg.base == "t":
        return "ctx.tid"
    if arg.base == "r":
        if arg.sizeof:
            return "ctx.sizeof('r')"
        if arg.metadata:
            return "ctx.result_shadow"
        return "ctx.result"
    index = int(arg.base)
    if arg.sizeof:
        return f"ctx.sizeof({index})"
    if arg.metadata:
        return f"ctx.operand_shadow({index})"
    return f"ctx.ops[{index - 1}]"


def generate_module(
    info: ProgramInfo,
    layout: LayoutPlan,
    group_of_map: Dict[str, int],
    cse_enabled: bool,
    analysis_name: str,
) -> str:
    """Emit the complete generated-Python module for an analysis."""
    prelude = _Prelude()
    body: List[str] = []
    for func in info.funcs.values():
        compiler = _HandlerCompiler(
            func, info, layout, group_of_map, cse_enabled, prelude
        )
        body.extend(compiler.compile())

    lines: List[str] = [
        f'"""Generated by ALDAcc for analysis {analysis_name!r}."""',
        "",
        "",
        "def make_handlers(RT):",
        "    profile = RT.meter.profile",
    ]
    for index, plan in enumerate(layout.groups):
        lines.append(f"    M{index} = RT.maps[{index}]  # {plan.group.name}")
    lines.extend(prelude.lines)
    if cse_enabled:
        # The lookup memo lives for one instrumentation event: the first
        # adapter to run at a new event clears it, and every handler
        # fired at that event shares it.
        lines.append("    memo_clear = RT._memo.clear")
        lines.append("    event_seq = -2")
    lines.append("")
    lines.extend(body)

    lines.append("    ADAPTERS = []")
    for position, decl in enumerate(info.inserts):
        handler = info.funcs[decl.handler]
        args = ", ".join(["ctx.loc"] + [_adapter_arg(arg) for arg in decl.args])
        call = f"h_{decl.handler}({args})"
        if handler.ret_type is not None and decl.position == "after":
            # The handler's return value becomes $r's local metadata.
            call = f"ctx.set_result_shadow({call})"
        hook_key = (
            decl.point_name if decl.point_kind == "inst" else f"func:{decl.point_name}"
        )
        lines.append(f"    def ad_{position}(ctx):")
        if cse_enabled:
            lines.append("        nonlocal event_seq")
            lines.append("        seq = ctx.seq")
            lines.append("        if seq != event_seq or seq == -1:")
            lines.append("            event_seq = seq")
            lines.append("            memo_clear()")
        lines.append(f"        {call}")
        lines.append(
            f"    ADAPTERS.append(({decl.position!r}, {hook_key!r}, ad_{position}))"
        )
    handler_map = ", ".join(
        f"{name!r}: h_{name}" for name in info.funcs
    )
    lines.append(f"    return {{{handler_map}}}, ADAPTERS")
    lines.append("")
    return "\n".join(lines)
