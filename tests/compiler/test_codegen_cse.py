"""Unit tests for phases 3a/3b: lookup reduction and handler generation.

Because ALDAcc keeps its generated Python on the compiled analysis,
optimization behaviour is directly visible in the artifact text.
"""

import re

from repro.compiler import CompileOptions, compile_analysis

SOURCE_MULTI_ACCESS = """
status = map(pointer, int8)
count = map(pointer, int64)

onX(pointer p) {
  if (status[p] == 1) { status[p] = 2; }
  if (status[p] == 2) { count[p] = count[p] + 1; }
}
insert after LoadInst call onX($1)
"""


def handler_text(analysis, name):
    lines = analysis.source.splitlines()
    start = next(i for i, l in enumerate(lines) if f"def h_{name}(" in l)
    end = start + 1
    while end < len(lines) and (lines[end].startswith("        ") or not lines[end].strip()):
        end += 1
    return "\n".join(lines[start:end])


class TestLookupReduction:
    def test_cse_hoists_single_lookup(self):
        analysis = compile_analysis(SOURCE_MULTI_ACCESS, CompileOptions())
        text = handler_text(analysis, "onX")
        # status and count coalesce into one group; one hoisted lookup serves
        # all five accesses
        assert text.count(".lookup(") == 1

    def test_no_cse_looks_up_per_access(self):
        analysis = compile_analysis(
            SOURCE_MULTI_ACCESS, CompileOptions(cse=False, coalesce=False)
        )
        text = handler_text(analysis, "onX")
        assert text.count(".lookup(") == 5

    def test_hoist_has_comment_with_key(self):
        analysis = compile_analysis(SOURCE_MULTI_ACCESS, CompileOptions())
        assert re.search(r"_s0 = M\d+\.lookup\(a_p\)\s+# p", analysis.source)

    def test_metadata_dependent_keys_not_hoisted(self):
        analysis = compile_analysis("""
        idx = map(pointer, int64)
        data = map(pointer, int8)
        onX(pointer p) {
          data[idx[p]] = 1;
          data[idx[p]] = 2;
        }
        insert after LoadInst call onX($1)
        """, CompileOptions(coalesce=False))
        text = handler_text(analysis, "onX")
        # idx[p] is hoistable (key p); data[idx[p]] must be looked up inline
        inline_lookups = text.count(".lookup(")
        assert inline_lookups >= 3  # 1 hoisted for idx + 2 inline for data

    def test_distinct_keys_distinct_slots(self):
        analysis = compile_analysis("""
        m = map(pointer, int8)
        onX(pointer p, pointer q) { m[p] = 1; m[q] = 2; }
        insert after LoadInst call onX($1, $1)
        """, CompileOptions())
        text = handler_text(analysis, "onX")
        assert "_s0" in text and "_s1" in text


class TestGeneratedCode:
    def test_module_compiles_as_python(self):
        analysis = compile_analysis(SOURCE_MULTI_ACCESS)
        compile(analysis.source, "<generated>", "exec")

    def test_constants_inlined(self):
        analysis = compile_analysis("""
        const LIMIT = 99
        m = map(pointer, int64)
        onX(pointer p) { m[p] = LIMIT; }
        insert after LoadInst call onX($1)
        """)
        assert "99" in analysis.source
        assert "LIMIT" not in analysis.source.replace("'LIMIT'", "")

    def test_param_mangling(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer loc) { m[loc] = 1; }
        insert after LoadInst call onX($1)
        """)
        # a user param named `loc` must not clash with the location arg
        assert "a_loc" in analysis.source

    def test_assert_sites_tagged_uniquely(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) {
          alda_assert(m[p], 0);
          alda_assert(m[p], 1);
        }
        insert after LoadInst call onX($1)
        """)
        assert "'onX#1'" in analysis.source
        assert "'onX#2'" in analysis.source

    def test_set_mutation_writes_back(self):
        analysis = compile_analysis("""
        tid := threadid : 8
        m = map(pointer, set(tid))
        onX(pointer p, tid t) { m[p].add(t); }
        insert after LoadInst call onX($1, $t)
        """)
        text = handler_text(analysis, "onX")
        assert ".add(" in text
        # mutation is written back (a register hit: the load billed it)
        assert "_t1 = ld0_0(_s0)" in text
        assert "_s0[1][0] = _t1" in text

    def test_interning_emitted_for_bounded_lockids(self):
        analysis = compile_analysis("""
        lid := lockid : 128
        m = map(lid, int64)
        onLock(lid l) { m[l] = 1; }
        insert after func mutex_lock call onLock($1)
        """)
        assert "RT.intern('lid', 128," in analysis.source

    def test_no_interning_for_threadids(self):
        analysis = compile_analysis("""
        tid := threadid : 8
        m = map(tid, int64)
        onX(pointer p, tid t) { m[t] = 1; }
        insert after LoadInst call onX($1, $t)
        """)
        assert "RT.intern" not in analysis.source

    def test_range_ops_emitted(self):
        analysis = compile_analysis("""
        m = map(pointer, int8)
        onX(pointer p, int64 s) {
          m.set(p, 1, s);
          alda_assert(m.get(p, s), 0);
        }
        insert after LoadInst call onX($1, sizeof($r))
        """)
        assert ".store_range(" in analysis.source
        assert ".load_range(" in analysis.source

    def test_external_call_emitted(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) { m[p] = vc_new(); }
        insert after LoadInst call onX($1)
        """)
        # bound once per attach, called from the handler
        assert "x_vc_new = RT.bind_external('vc_new')" in analysis.source
        assert "x_vc_new()" in handler_text(analysis, "onX")

    def test_handler_to_handler_call(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        int64 leaf(pointer p) { return m[p]; }
        onX(pointer p) { alda_assert(leaf(p), 0); }
        insert after LoadInst call onX($1)
        """)
        assert "h_leaf(loc, a_p)" in analysis.source

    def test_ptr_offset_inlined(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) { m[ptr_offset(p, 8)] = 1; }
        insert after LoadInst call onX($1)
        """)
        assert "(a_p + 8)" in analysis.source

    def test_set_intersection_compiles_to_method(self):
        analysis = compile_analysis("""
        lid := lockid : 64
        a = map(pointer, set(lid))
        b = map(pointer, set(lid))
        onX(pointer p) { a[p] = a[p] & b[p]; }
        insert after LoadInst call onX($1)
        """)
        assert ".intersect(" in analysis.source

    def test_block_level_cycle_billing(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) {
          if (m[p]) { m[p] = m[p] + 1; }
        }
        insert after LoadInst call onX($1)
        """)
        text = handler_text(analysis, "onX")
        # both the entry block and the branch body bill cycles
        assert text.count("profile.instr_cycles += ") == 2


class TestRegisterHits:
    def test_second_read_of_field_is_register_hit(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) {
          alda_assert(m[p], 0);
          alda_assert(m[p], 1);
        }
        insert after LoadInst call onX($1)
        """)
        text = handler_text(analysis, "onX")
        assert text.count("ld0_0(_s0)") == 1  # first read billed
        assert text.count("_s0[1][0]") == 1  # second read: plain local

    def test_no_register_hits_without_cse(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p) {
          alda_assert(m[p], 0);
          alda_assert(m[p], 1);
        }
        insert after LoadInst call onX($1)
        """, CompileOptions(cse=False))
        text = handler_text(analysis, "onX")
        assert text.count("ld0_0(") == 2
        assert "[1][0]" not in text

    def test_short_circuit_rhs_dominates_nothing(self):
        analysis = compile_analysis("""
        a = map(pointer, int64)
        b = map(pointer, int64)
        onX(pointer p) {
          if (a[p] == 1 && b[p] == 2) { a[p] = 3; }
          alda_assert(b[p], 0);
          alda_assert(a[p], 0);
        }
        insert after LoadInst call onX($1)
        """)
        text = handler_text(analysis, "onX")
        fa = analysis.layout.groups[0].field_index("a")
        fb = analysis.layout.groups[0].field_index("b")
        # b's read on the right of && may not run: the later read bills
        assert text.count(f"ld0_{fb}(_s0)") == 2
        # a's read on the left always runs: the store and the later read hit
        assert text.count(f"ld0_{fa}(_s0)") == 1
        assert f"_s0[1][{fa}] = 3" in text
        assert f"alda_assert(_s0[1][{fa}]" in text

    def test_branch_reads_dominate_nothing_after(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onX(pointer p, int64 v) {
          if (v > 0) { alda_assert(m[p], 0); }
          alda_assert(m[p], 1);
        }
        insert after LoadInst call onX($1, $r)
        """)
        text = handler_text(analysis, "onX")
        assert text.count("ld0_0(_s0)") == 2
        assert "_s0[1][0]" not in text


class TestAdapters:
    def test_adapter_per_insert(self):
        analysis = compile_analysis("""
        m = map(pointer, int8)
        onL(pointer p) { m[p] = 1; }
        onS(pointer p) { m[p] = 2; }
        insert after LoadInst call onL($1)
        insert after StoreInst call onS($2)
        """)
        assert "ad_0" in analysis.source and "ad_1" in analysis.source
        assert "('after', 'LoadInst', ad_0)" in analysis.source
        assert "('after', 'StoreInst', ad_1)" in analysis.source

    def test_func_adapter_key(self):
        analysis = compile_analysis("""
        m = map(pointer, int64)
        onM(pointer p, int64 s) { m[p] = s; }
        insert after func malloc call onM($r, $1)
        """)
        assert "'func:malloc'" in analysis.source
        assert "ctx.result" in analysis.source

    def test_metadata_and_sizeof_args(self):
        analysis = compile_analysis("""
        m = map(pointer, int8)
        onS(pointer p, int64 l, int64 s) { m.set(p, 1, s); alda_assert(l, 0); }
        insert after StoreInst call onS($2, $1.m, sizeof($1))
        """)
        assert "ctx.operand_shadow(1)" in analysis.source
        assert "ctx.sizeof(1)" in analysis.source

    def test_returning_handler_sets_result_shadow(self):
        analysis = compile_analysis("""
        label := int64
        m = map(pointer, label)
        label onL(pointer p) { return m[p]; }
        insert after LoadInst call onL($1)
        """)
        assert "ctx.set_result_shadow(h_onL" in analysis.source

    def test_dollar_p_expands_all_operands(self):
        analysis = compile_analysis("""
        onB(int64 a, int64 c) { alda_assert(a, c); }
        insert after BinaryOperator call onB($p)
        """)
        assert "*ctx.ops" in analysis.source
