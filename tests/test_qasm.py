import random
import re
from itertools import accumulate, repeat
from math import pi

import numpy as np
import pytest

from qcpredict import qasm
from qcpredict.circuit import BARRIER, GATE_SIGNATURES, MEASURE, Circuit, Instruction, validate
from qcpredict.compiler import compile_options
from qcpredict.generators import FAMILIES, generate_corpus, qft, random_circuit
from qcpredict.qasm import QasmError, parse_qasm, to_qasm

GHZ3 = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
"""


def test_parse_ghz3():
    c = parse_qasm(GHZ3, name="ghz3")
    assert c.num_qubits == 3 and c.num_clbits == 3
    assert c.name == "ghz3"
    kinds = [op.kind for op in c.ops]
    assert kinds == ["h", "cx", "cx", "measure", "measure", "measure"]
    assert c.ops[1].qubits == (0, 1)
    assert c.ops[3].clbit == 0


def test_missing_header_rejected():
    with pytest.raises(QasmError, match="OPENQASM 2.0"):
        parse_qasm("qreg q[2];\nh q[0];\n")


def test_no_qreg_rejected():
    with pytest.raises(QasmError, match="no qreg"):
        parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\n')


def test_multiple_registers_flatten_in_declaration_order():
    src = (
        "OPENQASM 2.0;\n"
        "qreg a[2];\nqreg b[3];\ncreg m[2];\ncreg n[1];\n"
        "h b[0];\ncx a[1],b[2];\nmeasure b[0] -> n[0];\n"
    )
    c = parse_qasm(src)
    assert c.num_qubits == 5 and c.num_clbits == 3
    assert c.ops[0].qubits == (2,)  # b[0] follows a's two slots
    assert c.ops[1].qubits == (1, 4)
    assert c.ops[2].qubits == (2,) and c.ops[2].clbit == 2


def test_single_qubit_gates_broadcast_over_registers():
    src = "OPENQASM 2.0;\nqreg q[3];\nh q;\n"
    c = parse_qasm(src)
    assert [op.qubits for op in c.ops] == [(0,), (1,), (2,)]


def test_register_measure_broadcast_requires_equal_sizes():
    good = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\n"
    c = parse_qasm(good)
    assert [(op.qubits[0], op.clbit) for op in c.ops] == [(0, 0), (1, 1)]
    bad = "OPENQASM 2.0;\nqreg q[2];\ncreg c[3];\nmeasure q -> c;\n"
    with pytest.raises(QasmError, match="arity mismatch"):
        parse_qasm(bad)


def test_two_qubit_register_broadcast_rejected():
    src = "OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\ncx q,r;\n"
    with pytest.raises(QasmError, match="single-qubit"):
        parse_qasm(src)


def test_bare_barrier_covers_all_qubits():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nbarrier;\n")
    assert c.ops[0].kind == "barrier"
    assert c.ops[0].qubits == (0, 1, 2)


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\r\n", " \n\t"])
def test_barrier_keyword_may_be_followed_by_any_whitespace(space):
    c = parse_qasm(f"OPENQASM 2.0;\nqreg q[3];\nbarrier{space}q[0],q[1];\nbarrier{space}q;\n")
    assert [op.qubits for op in c.ops] == [(0, 1), (0, 1, 2)]


def test_aliases_map_to_canonical_kinds():
    src = (
        "OPENQASM 2.0;\nqreg q[2];\n"
        "U(0.1,0.2,0.3) q[0];\nu(0.1,0.2,0.3) q[0];\nCX q[0],q[1];\n"
        "p(0.4) q[1];\ncu1(0.5) q[0],q[1];\n"
    )
    c = parse_qasm(src)
    assert [op.kind for op in c.ops] == ["u3", "u3", "cx", "u1", "cp"]


def test_angle_expressions():
    src = (
        "OPENQASM 2.0;\nqreg q[1];\n"
        "rz(pi/2) q[0];\nrz(-pi) q[0];\nrz(3*pi/4) q[0];\n"
        "rz(pi/2 + pi/4) q[0];\nrz((1+2)*pi) q[0];\nrz(1.5e-3) q[0];\nrz(.25) q[0];\n"
    )
    c = parse_qasm(src)
    got = [op.params[0] for op in c.ops]
    assert got == pytest.approx([pi / 2, -pi, 3 * pi / 4, 3 * pi / 4, 3 * pi, 1.5e-3, 0.25])


def test_bad_angle_expression_rejected():
    with pytest.raises(QasmError, match="angle"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(pi foo) q[0];\n")
    with pytest.raises(QasmError, match="parenthes"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz((pi) q[0];\n")


@pytest.mark.parametrize(
    "stmt,word",
    [
        ("gate mygate a { h a; }", "gate"),
        ("if (c == 1) x q[0];", "if"),
        ("opaque noisy q;", "opaque"),
        ("reset q[0];", "reset"),
    ],
)
def test_forbidden_constructs_rejected_with_line(stmt, word):
    src = f"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n{stmt}\n"
    with pytest.raises(QasmError, match=word) as info:
        parse_qasm(src)
    assert "line 4" in str(info.value)


def test_errors_carry_line_numbers():
    src = "OPENQASM 2.0;\nqreg q[2];\n\nh q[5];\n"
    with pytest.raises(QasmError, match="line 4"):
        parse_qasm(src)
    src = "OPENQASM 2.0;\nqreg q[2];\nblorp q[0];\n"
    with pytest.raises(QasmError, match="line 3.*blorp"):
        parse_qasm(src)


def test_index_out_of_range_and_undeclared_register():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[2];\n")
    with pytest.raises(QasmError, match="undeclared"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh r[0];\n")


def test_redeclared_register_rejected():
    with pytest.raises(QasmError, match="redeclared"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\n")


def test_duplicate_qubits_rejected():
    with pytest.raises(QasmError, match="duplicate"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n")


def test_comments_and_whitespace_ignored():
    src = "// header comment\nOPENQASM 2.0; // trailing\n\n  qreg q[1];\n\th q[0]; // gate\n"
    c = parse_qasm(src)
    assert [op.kind for op in c.ops] == ["h"]


def test_param_count_mismatch():
    with pytest.raises(QasmError, match="parameter"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz q[0];\n")
    with pytest.raises(QasmError, match="parameter"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh(0.5) q[0];\n")


def test_emit_is_normalized():
    text = to_qasm(parse_qasm(GHZ3))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[3];"
    assert lines[3] == "creg c[3];"
    assert "h q[0];" in lines
    assert "measure q[2] -> c[2];" in lines


def test_round_trip_random_circuits_exact():
    # emitted angles use repr(), so a reparse is bit-exact
    for i in range(25):
        c = random_circuit(2 + i % 6, seed=1000 + i, variant=i)
        back = parse_qasm(to_qasm(c), name=c.name)
        assert back.num_qubits == c.num_qubits
        assert back.num_clbits == c.num_clbits
        assert back.ops == c.ops


def test_round_trip_angle_bits():
    angles = np.random.default_rng(5).uniform(-4 * pi, 4 * pi, size=50)
    src = "OPENQASM 2.0;\nqreg q[1];\n" + "".join(f"rz({float(a)!r}) q[0];\n" for a in angles)
    c = parse_qasm(src)
    assert [op.params[0] for op in c.ops] == list(angles)


# Each message and line below was recorded from the earlier parser, which
# split statements and parameter lists with their own helpers; the one-pass
# parser must report the same.
HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
LONG = "OPENQASM 2.0;\nqreg q[2];\n" + "h q[0];\n" * 4999 + "h q[2];\n"

ERROR_TABLE = [
    ("split_over_lines", HEAD + "cx q[0],\n   q[0];\n", "line 5: cx applied to duplicate qubits"),
    ("split_after_blank_lines", HEAD + "h q[0];\n\n\n  cx\n  q[1],\n  q[7];\n", "line 8: index 7 out of range for q[3]"),
    ("comments_and_blanks_before", HEAD + "// a comment\n\n   // another\n\nblorp q[0];\n", "line 9: unknown gate 'blorp'"),
    ("after_comment_on_same_line", HEAD + "h q[0]; // x\n  \n  h q[9];\n", "line 7: index 9 out of range for q[3]"),
    ("second_statement_on_line", HEAD + "h q[0]; h q[5];\n", "line 5: index 5 out of range for q[3]"),
    ("missing_semicolon", HEAD + "h q[0];\nh q[1]\n", "line 5: statement missing ';': 'h q[1]'"),
    ("missing_semicolon_after_blanks", HEAD + "h q[0];\n\n\n  h q[1]\n\n", "line 5: statement missing ';': 'h q[1]'"),
    ("no_semicolon_at_all", "\n\nOPENQASM 2.0\n", "line 1: statement missing ';': 'OPENQASM 2.0'"),
    ("last_of_5000_statements", LONG, "line 5002: index 2 out of range for q[2]"),
    ("empty_param_item", HEAD + "u3(0.1,,0.3) q[0];\n", "line 5: u3 expects 3 parameter(s), got 2"),
    ("unclosed_param_paren", HEAD + "rz((pi) q[0];\n", "line 5: unbalanced parentheses in 'rz((pi) q[0]'"),
    ("junk_in_angle", HEAD + "rz(pi foo) q[0];\n", "line 5: bad angle expression 'pi foo'"),
    ("forbidden_gate", HEAD + "gate mygate a { h a; }\n", "line 5: unsupported construct 'gate'"),
    ("forbidden_if", HEAD + "if (c == 1) x q[0];\n", "line 5: unsupported construct 'if'"),
    ("forbidden_opaque", HEAD + "opaque noisy q;\n", "line 5: unsupported construct 'opaque'"),
    ("forbidden_reset", HEAD + "reset q[0];\n", "line 5: unsupported construct 'reset'"),
    ("forbidden_in_word_order", HEAD + "reset q[0];\n\ngate g a { h a; }\n", "line 7: unsupported construct 'gate'"),
    ("no_header", "qreg q[2];\nh q[0];\n", "line 1: expected 'OPENQASM 2.0;' header"),
    ("empty_source", "", "line 1: expected 'OPENQASM 2.0;' header"),
    ("only_semicolons", "\n;;\n;", "line 1: expected 'OPENQASM 2.0;' header"),
    ("wrong_version", "\n\n  OPENQASM 3.0;\nqreg q[1];\n", "line 3: expected 'OPENQASM 2.0;' header"),
    ("no_qreg", 'OPENQASM 2.0;\ninclude "qelib1.inc";\n', "line 1: no qreg declared"),
    ("other_include", HEAD + 'include "other.inc";\n', "line 5: unsupported include: 'include \"other.inc\"'"),
    ("unknown_gate_with_params", HEAD + "mygate(theta) q[0];\n", "line 5: unknown gate 'mygate'"),
    ("unparseable", HEAD + "3x q[0];\n", "line 5: unparseable statement '3x q[0]'"),
    ("params_never_closed", HEAD + "rz(pi q[0];\n", "line 5: unbalanced parentheses in 'rz(pi q[0]'"),
    ("stray_close_paren", HEAD + "rz(pi)) q[0];\n", "line 5: bad quantum argument ') q[0]'"),
    ("stray_close_then_open", HEAD + "rz(1)+((2) q[0];\n", "line 5: bad quantum argument '+((2) q[0]'"),
    ("trailing_tokens", HEAD + "rz(1 2) q[0];\n", "line 5: trailing tokens in angle expression '1 2'"),
    ("truncated", HEAD + "rz(1+) q[0];\n", "line 5: truncated angle expression '1+'"),
    ("bad_token", HEAD + "rz(*1) q[0];\n", "line 5: bad token '*' in angle expression"),
    ("comma_inside_parens", HEAD + "rz((1,2)) q[0];\n", "line 5: bad angle expression '(1,2)'"),
    ("bad_second_item", HEAD + "u3(0.1, foo, 0.3) q[0];\n", "line 5: bad angle expression ' foo'"),
    ("inf_literal", HEAD + "rz(inf) q[0];\n", "line 5: bad angle expression 'inf'"),
    # past the recursion limit; the message does not echo the expression
    ("nested_parentheses", HEAD + "rz(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];\n",
     "line 5: angle expression nests too deeply"),
    ("nested_unary_minus", HEAD + "rz(" + "-" * 5000 + "1) q[0];\n", "line 5: angle expression nests too deeply"),
    ("empty_parens", HEAD + "rz() q[0];\n", "line 5: rz expects 1 parameter(s), got 0"),
    ("params_on_h", HEAD + "h(0.5) q[0];\n", "line 5: h expects 0 parameter(s), got 1"),
    ("too_few_args", HEAD + "cx q[0];\n", "line 5: cx expects 2 argument(s), got 1"),
    ("args_over_lines", HEAD + "u3(0.1,\n  0.2,\n  0.3 ) q[0],\n q[1];\n", "line 5: u3 expects 1 argument(s), got 2"),
    ("bad_arg", HEAD + "h q[0;\n", "line 5: bad quantum argument 'q[0'"),
    ("undeclared", HEAD + "h r[0];\n", "line 5: undeclared quantum register 'r'"),
    ("two_qubit_broadcast", HEAD + "cx q,q[1];\n", "line 5: register broadcast is only supported for single-qubit gates"),
    ("bad_measure", HEAD + "measure q[0];\n", "line 5: bad measure statement 'measure q[0]'"),
    ("measure_arity", HEAD + "qreg r[2];\nmeasure r -> c;\n", "line 6: measure arity mismatch between registers"),
    ("measure_undeclared", HEAD + "measure q[0] -> d[0];\n", "line 5: undeclared classical register 'd'"),
    ("zero_size_register", "OPENQASM 2.0;\nqreg q[0];\n", "line 2: register 'q' must have positive size"),
    ("redeclared", "OPENQASM 2.0;\nqreg q[1];\ncreg q[1];\n", "line 3: register 'q' redeclared"),
    ("malformed_decl", "OPENQASM 2.0;\nqreg q;\n", "line 2: unknown gate 'qreg'"),
    ("barrier_before_qreg", "OPENQASM 2.0;\nbarrier;\nqreg q[1];\n", "line 2: barrier on empty register set"),
    ("barrier_empty_arg", HEAD + "barrier q[0],;\n", "line 5: bad quantum argument ''"),
    ("crlf_line_ends", "OPENQASM 2.0;\r\nqreg q[1];\r\nblorp q[0];\r\n", "line 3: unknown gate 'blorp'"),
    ("lone_cr_line_ends", "OPENQASM 2.0;\rqreg q[1];\r\rblorp q[0];", "line 4: unknown gate 'blorp'"),
    ("form_feed_ends_no_line", "OPENQASM 2.0;\x0cqreg q[1];\nblorp q[0];", "line 2: unknown gate 'blorp'"),
]


@pytest.mark.parametrize("source,message", [row[1:] for row in ERROR_TABLE], ids=[row[0] for row in ERROR_TABLE])
def test_error_messages_and_lines(source, message):
    with pytest.raises(QasmError) as info:
        parse_qasm(source)
    assert str(info.value) == message
    assert info.value.line == int(message.split(":")[0].removeprefix("line "))


@pytest.mark.parametrize(
    "stmt,message",
    [
        ("rz(1/0) q[0];", "division by zero in angle expression '1/0'"),
        ("rz(1e999) q[0];", "angle expression '1e999' is not a finite number"),
        ("rz(1e999-1e999) q[0];", "angle expression '1e999-1e999' is not a finite number"),
        ("u3(0.1, 2*1e308, 0.3) q[0];", "angle expression ' 2*1e308' is not a finite number"),
        ("barrier q[0],q[0];", "barrier applied to duplicate qubits"),
        ("barrier q,q[1];", "barrier applied to duplicate qubits"),
    ],
)
def test_non_finite_angles_and_duplicate_barrier_qubits_rejected_with_line(stmt, message):
    with pytest.raises(QasmError) as info:
        parse_qasm(HEAD + "h q[0];\n" + stmt + "\n")
    assert str(info.value) == f"line 6: {message}"


@pytest.mark.parametrize(
    "text",
    ["0.5", "-0.0", "+0", "0", "1.", ".25", "-.3e1", "1E-3", "  7 ", "0.1, -2.5e+2,3", "1e308", "5e-324", "\n0.2,\t-0.0 "],
)
def test_plain_literal_lists_read_as_the_expression_parser_reads_them(text):
    # parentheses around each item send it through the recursive descent
    wrapped = ",".join(f"({item})" for item in text.split(","))
    values, end = qasm._eval_angles(text, 1)
    assert end == len(text)
    assert [float.hex(v) for v in values] == [float.hex(v) for v in qasm._eval_angles(wrapped, 1)[0]]
    assert all(type(v) is float for v in values)


def test_literal_lists_that_are_not_plain_keep_their_errors():
    with pytest.raises(QasmError, match="'1e999' is not a finite number"):
        qasm._eval_angles("0.5,1e999", 3)
    with pytest.raises(QasmError, match="bad angle expression '1_0'"):
        qasm._eval_angles("1_0", 3)
    assert qasm._eval_angles("0.5,,1", 3) == ((0.5, 1.0), 6)
    assert qasm._eval_angles("- 1", 3) == ((-1.0,), 3)


def test_empty_argument_items_are_skipped():
    c = parse_qasm(HEAD + "cx q[0],,q[1],;\n")
    assert c.ops == (Instruction("cx", (0, 1)),)


def test_parameters_may_span_lines_and_nest():
    c = parse_qasm(HEAD + "u3(0.1,\n  (0.2 + pi) * 2,\n  -.3e1) q[2];\n")
    assert c.ops == (Instruction("u3", (2,), (0.1, (0.2 + pi) * 2, -3.0)),)
    c = parse_qasm(HEAD + "rz(" + "(" * 50 + "-" * 50 + "0.5" + ")" * 50 + ") q[0];\n")
    assert c.ops == (Instruction("rz", (0,), (0.5,)),)


def test_validate_runs_once_per_parse(monkeypatch):
    calls = []
    monkeypatch.setattr(qasm, "validate", lambda circuit: calls.append(circuit))
    c = parse_qasm(GHZ3)
    assert calls == [c]


def test_round_trip_130_qubit_member_of_every_family_bit_exact():
    corpus = generate_corpus(qubit_range=(130, 130))
    assert {c.name.split("_")[0] for c in corpus} == set(FAMILIES) - {"grover"}  # grover stops at 3 qubits
    for c in corpus:
        back = parse_qasm(to_qasm(c), name=c.name)
        assert (back.num_qubits, back.num_clbits, back.name) == (c.num_qubits, c.num_clbits, c.name)
        assert back.ops == c.ops
        # hex tells -0.0 from 0.0, which == does not
        assert [p.hex() for op in back.ops for p in op.params] == [p.hex() for op in c.ops for p in op.params]


def _reference_to_qasm(circuit):
    """The emitter that formatted every op's qubits anew, kept to check that
    ``to_qasm`` writes the same bytes."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for op in circuit.ops:
        args = ",".join(f"q[{q}]" for q in op.qubits)
        if op.kind == MEASURE:
            lines.append(f"measure q[{op.qubits[0]}] -> c[{op.clbit}];")
        elif op.kind == BARRIER:
            lines.append(f"barrier {args};")
        elif op.params:
            lines.append(f"{op.kind}({','.join(map(repr, op.params))}) {args};")
        else:
            lines.append(f"{op.kind} {args};")
    return "\n".join(lines) + "\n"


def test_emitter_matches_the_reference_on_a_generated_corpus():
    corpus = generate_corpus(qubit_range=(2, 14), random_variants=3) + generate_corpus(qubit_range=(60, 60))
    for c in corpus:
        assert to_qasm(c) == _reference_to_qasm(c), c.name


def test_emitter_matches_the_reference_on_compiled_circuits(options, fleet):
    # every option compile_options yields, on every builtin device
    devices = set()
    for c in generate_corpus(qubit_range=(4, 4)) + [qft(9)]:
        for option, result in compile_options(c, options, fleet):
            devices.add(option.device_id)
            assert to_qasm(result.circuit) == _reference_to_qasm(result.circuit), (c.name, option.option_id)
    assert devices == set(fleet)


def test_emitter_matches_the_reference_on_hand_built_circuits():
    ops = (
        Instruction("rz", (0,), (-0.0,)),
        Instruction("rz", (0,), (0.0,)),
        Instruction("rx", (2,), (1.0,)),
        Instruction("u3", (1,), (1.0, -0.0, 5e-324)),
        Instruction("cx", (0, 2)),
        Instruction("cx", (2, 0)),
        Instruction("cx", (0, 2)),
        Instruction("ccx", (2, 0, 1)),
        Instruction("cu3", (1, 2), (-1.0, 1e300, -2.5)),
        Instruction(BARRIER, (0, 1, 2)),
        Instruction(BARRIER, (1,)),
        Instruction("h", (1,)),
        Instruction(MEASURE, (1,), (), 0),
        Instruction(MEASURE, (0,), (), 1),
        Instruction(MEASURE, (1,), (), 1),
    )
    circuits = [
        Circuit(3, 2, ops),
        Circuit(3, 0, tuple(op for op in ops if op.kind != MEASURE)),  # no clbits: no creg line
        Circuit(1, 0, ()),
        Circuit(1, 1, (Instruction(MEASURE, (0,), (), 0),)),
    ]
    for c in circuits:
        text = to_qasm(c)
        assert text == _reference_to_qasm(c)
    assert "creg" not in to_qasm(circuits[1])
    assert to_qasm(circuits[0]).splitlines()[4:7] == ["rz(-0.0) q[0];", "rz(0.0) q[0];", "rx(1.0) q[2];"]


def _reference_parse_qasm(source, name=""):
    """The parser that carried each statement's line from one ';' to the next
    and tried the declaration, include, measure and barrier forms before a
    gate, kept to check that ``parse_qasm`` accepts the same texts and
    refuses the others with the same message and line. Angle lists go
    through the module's ``_eval_angles``."""
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    text = "\n".join(l.split("//", 1)[0] for l in lines)

    for word in ("gate", "if", "opaque", "reset"):
        m = word in text and re.search(rf"(^|[;\s]){word}\b", text)
        if m:
            line = text.count("\n", 0, m.start() + len(m.group(1))) + 1
            raise QasmError(f"unsupported construct '{word}'", line)

    body, _, tail = text.rpartition(";")
    if tail.strip():
        raise QasmError(f"statement missing ';': {tail.strip()!r}", body.count("\n") + 1)

    qregs = {}
    cregs = {}
    num_qubits = 0
    num_clbits = 0
    ops = []

    def resolve(arg, regs, what, line):
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$", arg.strip())
        if not m:
            raise QasmError(f"bad {what} argument {arg.strip()!r}", line)
        reg, idx = m.group(1), m.group(2)
        if reg not in regs:
            raise QasmError(f"undeclared {what} register {reg!r}", line)
        offset, size = regs[reg]
        if idx is None:
            return [offset + i for i in range(size)]
        i = int(idx)
        if i >= size:
            raise QasmError(f"index {i} out of range for {reg}[{size}]", line)
        return [offset + i]

    seen = 0
    next_line = 1
    for segment in body.split(";"):
        stmt = segment.strip()
        if not stmt:
            next_line += segment.count("\n")
            continue
        line = next_line + segment.count("\n", 0, segment.find(stmt[0]))
        next_line += segment.count("\n")
        seen += 1
        if seen <= 2:
            if seen == 1 and not re.match(r"^OPENQASM\s+2\.0$", stmt):
                raise QasmError("expected 'OPENQASM 2.0;' header", line)
            if seen == 1 or re.match(r"^include\s+\"qelib1\.inc\"$", stmt):
                continue

        m = re.match(r"^(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", stmt)
        if m:
            which, reg, size = m.group(1), m.group(2), int(m.group(3))
            if size < 1:
                raise QasmError(f"register {reg!r} must have positive size", line)
            if reg in qregs or reg in cregs:
                raise QasmError(f"register {reg!r} redeclared", line)
            if which == "qreg":
                qregs[reg] = (num_qubits, size)
                num_qubits += size
            else:
                cregs[reg] = (num_clbits, size)
                num_clbits += size
            continue

        if stmt.startswith("include"):
            raise QasmError(f"unsupported include: {stmt!r}", line)

        if stmt.startswith("measure"):
            m = re.match(r"^measure\s+(.+?)\s*->\s*(.+)$", stmt)
            if not m:
                raise QasmError(f"bad measure statement {stmt!r}", line)
            qs = resolve(m.group(1), qregs, "quantum", line)
            cs = resolve(m.group(2), cregs, "classical", line)
            if len(qs) != len(cs):
                raise QasmError("measure arity mismatch between registers", line)
            ops.extend(Instruction(MEASURE, (q,), (), c) for q, c in zip(qs, cs))
            continue

        if stmt.startswith("barrier") and (len(stmt) == 7 or stmt[7].isspace()):
            rest = stmt[len("barrier"):].strip()
            if not rest:
                qs = list(range(num_qubits))
            else:
                qs = []
                for arg in rest.split(","):
                    qs.extend(resolve(arg, qregs, "quantum", line))
            if not qs:
                raise QasmError("barrier on empty register set", line)
            if len(set(qs)) != len(qs):
                raise QasmError("barrier applied to duplicate qubits", line)
            ops.append(Instruction(BARRIER, tuple(qs)))
            continue

        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?(.*)", stmt, re.S)
        if not m:
            raise QasmError(f"unparseable statement {stmt!r}", line)
        raw_kind, raw_params, raw_args = m.groups()
        unclosed = raw_params is None and raw_args.startswith("(")
        if raw_params and "(" in raw_params:
            depths = list(accumulate(map({"(": 1, ")": -1}.get, raw_params, repeat(0)), initial=0))
            unclosed = min(depths) == 0 < depths[-1]
        if unclosed:
            raise QasmError(f"unbalanced parentheses in {stmt!r}", line)
        kind = {"u": "u3", "U": "u3", "CX": "cx", "cu1": "cp", "p": "u1"}.get(raw_kind, raw_kind)
        if kind not in GATE_SIGNATURES:
            raise QasmError(f"unknown gate {raw_kind!r}", line)
        arity, nparams = GATE_SIGNATURES[kind]
        params = ()
        if raw_params is not None:
            params, end = qasm._eval_angles(raw_params, line)
            if end < len(raw_params):
                raw_args = raw_params[end + 1:] + ")" + raw_args
        if len(params) != nparams:
            raise QasmError(f"{raw_kind} expects {nparams} parameter(s), got {len(params)}", line)
        args = [a for a in raw_args.split(",") if a.strip()]
        if len(args) != arity:
            raise QasmError(f"{raw_kind} expects {arity} argument(s), got {len(args)}", line)
        if arity == 1:
            ops.extend(Instruction(kind, (q,), params) for q in resolve(args[0], qregs, "quantum", line))
            continue
        qs = tuple(q for a in args for q in resolve(a, qregs, "quantum", line))
        if len(qs) != arity:
            raise QasmError("register broadcast is only supported for single-qubit gates", line)
        if len(set(qs)) != arity:
            raise QasmError(f"{raw_kind} applied to duplicate qubits", line)
        ops.append(Instruction(kind, qs, params))

    if not seen:
        raise QasmError("expected 'OPENQASM 2.0;' header", 1)
    if num_qubits == 0:
        raise QasmError("no qreg declared", 1)
    circuit = Circuit(num_qubits, num_clbits, tuple(ops), name)
    validate(circuit)
    return circuit


@pytest.mark.parametrize("blank", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newline_and_carriage_return_end_a_line(blank):
    """``str.splitlines`` also breaks lines at these, ``open()`` does not:
    they neither move a refusal's line nor end a comment."""
    refused = f"OPENQASM 2.0;{blank}qreg q[1];\nblorp q[0];"
    with pytest.raises(QasmError) as info:
        parse_qasm(refused)
    assert info.value.line == 2
    commented = f"OPENQASM 2.0;\nqreg q[1]; // a note{blank}blorp q[0];\nh q[0];\n"
    assert [op.kind for op in parse_qasm(commented).ops] == ["h"]
    for source in (refused, commented):
        assert _parse_outcome(parse_qasm, source) == _parse_outcome(_reference_parse_qasm, source)


def _parse_outcome(parse, source):
    """The parsed circuit's registers and ops, or the refusal's message and line."""
    try:
        c = parse(source)
    except QasmError as error:
        return str(error), error.line
    return c.num_qubits, c.num_clbits, c.ops


# the characters of the emitted QASM, and a few that start other statements
_QASM_ALPHABET = 'qcr[]();,->. \n\t0123456789+*/piehxuzsgbmaO"_'


def _edited(text, rng):
    """``text`` with one to three characters deleted, inserted or substituted."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + rng.choice(_QASM_ALPHABET) + text[i:]
        else:
            text = text[:i] + rng.choice(_QASM_ALPHABET) + text[i + 1:]
    return text


def _reference_texts():
    corpus = generate_corpus(qubit_range=(2, 14), random_variants=3)
    wide = generate_corpus(qubit_range=(60, 60)) + generate_corpus(qubit_range=(127, 127))
    return [to_qasm(c) for c in corpus], [to_qasm(c) for c in wide]


def test_parser_matches_the_reference_on_generated_corpora():
    narrow, wide = _reference_texts()
    for text in narrow + wide:
        assert _parse_outcome(parse_qasm, text) == _parse_outcome(_reference_parse_qasm, text)


def test_parser_matches_the_reference_on_edited_texts():
    # most edits are refused, each refusal at the edited statement, so the
    # refusals cover most of the parser's messages in most statement forms
    narrow, wide = _reference_texts()
    rng = random.Random(20240)
    sources = [_edited(t, rng) for t in narrow for _ in range(24)] + [_edited(t, rng) for t in wide for _ in range(3)]
    messages = set()
    for source in sources:
        outcome = _parse_outcome(parse_qasm, source)
        assert outcome == _parse_outcome(_reference_parse_qasm, source), repr(source)
        if isinstance(outcome[0], str):  # the message's form, without names and numbers
            messages.add(re.sub(r"^\w+ (?=expects|applied)|'.*|\d+", "", outcome[0].split(": ", 1)[1]))
    assert len(messages) >= 20, sorted(messages)
