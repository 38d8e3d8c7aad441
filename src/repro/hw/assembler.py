"""Two-pass assembler for the MicroBlaze-subset ISA.

Syntax
------
::

    # comment
    .text 0x40000000        ; text base (optional, default DDR base)
    .data 0x40010000        ; switch to data emission at address
    table: .word 5 3 8 1    ; labelled data words
    .text                   ; back to code
    start:
        addi  r3, r0, 0     ; r3 = 0
        lwi   r4, r0, table ; label as immediate
        beqz  r4, done
        br    start
    done:
        halt

Labels can be used as branch targets (instruction index) and as
immediates (absolute byte address for data labels, instruction address
for code labels used via ``la``-style addi).
"""

from __future__ import annotations

import difflib
import re
from typing import Dict, List, Optional, Tuple

from repro.hw.isa import Instruction, OPCODES, Program

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class AssemblerError(Exception):
    """Syntax or linkage error, annotated with the source line."""


def _suggest(name: str, candidates) -> str:
    """" (did you mean 'x'?)" when a close label name exists."""
    close = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _parse_register(token: str, line_no: int) -> int:
    token = token.strip().lower()
    if not token.startswith("r"):
        raise AssemblerError(f"line {line_no}: expected register, got {token!r}")
    try:
        reg = int(token[1:])
    except ValueError:
        raise AssemblerError(f"line {line_no}: bad register {token!r}") from None
    if not 0 <= reg < 32:
        raise AssemblerError(f"line {line_no}: register {token!r} out of range")
    return reg


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"line {line_no}: bad integer {token!r}") from None


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, text_base: int = 0x4000_0000):
        self.text_base = text_base

    def assemble(self, source: str) -> Program:
        lines = source.splitlines()
        instructions: List[Tuple[int, str, List[str]]] = []  # (line_no, op, operands)
        code_labels: Dict[str, int] = {}
        data_labels: Dict[str, int] = {}
        label_lines: Dict[str, int] = {}  # label -> defining source line
        data: Dict[int, int] = {}
        text_base = self.text_base
        mode = "text"
        data_cursor: Optional[int] = None

        # ---------------------------------------------------------- first pass
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#")[0].split(";")[0].strip()
            if not line:
                continue

            while True:  # consume leading labels (possibly several)
                match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$", line)
                if not match:
                    break
                label, line = match.group(1), match.group(2).strip()
                if label in code_labels or label in data_labels:
                    raise AssemblerError(
                        f"line {line_no}: duplicate label {label!r} "
                        f"(first defined on line {label_lines[label]})"
                    )
                label_lines[label] = line_no
                if mode == "text":
                    code_labels[label] = len(instructions)
                else:
                    if data_cursor is None:
                        raise AssemblerError(f"line {line_no}: .data needs an address")
                    data_labels[label] = data_cursor
            if not line:
                continue

            if line.startswith(".text"):
                parts = line.split()
                if len(parts) > 1:
                    text_base = _parse_int(parts[1], line_no)
                mode = "text"
                continue
            if line.startswith(".data"):
                parts = line.split()
                if len(parts) > 1:
                    data_cursor = _parse_int(parts[1], line_no)
                elif data_cursor is None:
                    raise AssemblerError(f"line {line_no}: first .data needs an address")
                mode = "data"
                continue
            if line.startswith(".word"):
                if mode != "data" or data_cursor is None:
                    raise AssemblerError(f"line {line_no}: .word outside .data")
                for token in line.split()[1:]:
                    data[data_cursor] = _parse_int(token, line_no) & 0xFFFFFFFF
                    data_cursor += 4
                continue
            if line.startswith(".space"):
                if mode != "data" or data_cursor is None:
                    raise AssemblerError(f"line {line_no}: .space outside .data")
                count = _parse_int(line.split()[1], line_no)
                data_cursor += 4 * count
                continue

            if mode != "text":
                raise AssemblerError(f"line {line_no}: instruction in .data section")
            tokens = line.replace(",", " ").split()
            op, operands = tokens[0].lower(), tokens[1:]
            if op not in OPCODES:
                raise AssemblerError(f"line {line_no}: unknown opcode {op!r}")
            instructions.append((line_no, op, operands))

        # --------------------------------------------------------- second pass
        def resolve_imm(token: str, line_no: int) -> int:
            if _LABEL_RE.match(token):
                if token in data_labels:
                    return data_labels[token]
                if token in code_labels:
                    return text_base + 4 * code_labels[token]
                raise AssemblerError(
                    f"line {line_no}: undefined label {token!r}"
                    + _suggest(token, set(data_labels) | set(code_labels))
                )
            return _parse_int(token, line_no)

        def resolve_branch(token: str, line_no: int) -> int:
            if _LABEL_RE.match(token):
                if token in code_labels:
                    return code_labels[token]
                if token in data_labels:
                    raise AssemblerError(
                        f"line {line_no}: branch target {token!r} is a data "
                        f"label (defined on line {label_lines[token]}), not code"
                    )
                raise AssemblerError(
                    f"line {line_no}: undefined code label {token!r}"
                    + _suggest(token, code_labels)
                )
            return _parse_int(token, line_no)

        decoded: List[Instruction] = []
        source_lines: List[int] = []
        for line_no, op, operands in instructions:
            source_lines.append(line_no)
            signature = OPCODES[op]
            if signature == "" and operands:
                raise AssemblerError(f"line {line_no}: {op} takes no operands")
            if signature == "RRR":
                if len(operands) != 3:
                    raise AssemblerError(f"line {line_no}: {op} needs 3 registers")
                rd = _parse_register(operands[0], line_no)
                ra = _parse_register(operands[1], line_no)
                rb = _parse_register(operands[2], line_no)
                decoded.append(Instruction(op=op, rd=rd, ra=ra, rb=rb))
            elif signature == "RRI":
                if len(operands) != 3:
                    raise AssemblerError(f"line {line_no}: {op} needs rd, ra, imm")
                rd = _parse_register(operands[0], line_no)
                ra = _parse_register(operands[1], line_no)
                imm = resolve_imm(operands[2], line_no)
                decoded.append(Instruction(op=op, rd=rd, ra=ra, imm=imm))
            elif signature == "RL":
                if len(operands) != 2:
                    raise AssemblerError(f"line {line_no}: {op} needs rd, label")
                rd = _parse_register(operands[0], line_no)
                target = resolve_branch(operands[1], line_no)
                decoded.append(Instruction(op=op, rd=rd, imm=target, label=operands[1]))
            elif signature == "R":
                if len(operands) != 1:
                    raise AssemblerError(f"line {line_no}: {op} needs a register")
                rd = _parse_register(operands[0], line_no)
                decoded.append(Instruction(op=op, rd=rd))
            elif signature == "L":
                if len(operands) != 1:
                    raise AssemblerError(f"line {line_no}: {op} needs a label")
                target = resolve_branch(operands[0], line_no)
                decoded.append(Instruction(op=op, imm=target, label=operands[0]))
            elif signature == "":
                decoded.append(Instruction(op=op))
            else:  # pragma: no cover
                raise AssemblerError(f"line {line_no}: bad signature {signature}")

        symbols = dict(data_labels)
        symbols.update({k: text_base + 4 * v for k, v in code_labels.items()})
        return Program(
            instructions=decoded,
            base=text_base,
            data=data,
            symbols=symbols,
            lines=source_lines,
        )


def assemble(source: str, text_base: int = 0x4000_0000) -> Program:
    """Module-level convenience wrapper."""
    return Assembler(text_base=text_base).assemble(source)
