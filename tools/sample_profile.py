#!/usr/bin/env python3
"""Sampling profiler for the native executables of this repository.

Starts a command as its own child, attaches to it with ptrace, and every
N milliseconds interrupts the child's main thread, reads its instruction
pointer and lets it go on. When the child exits, each sample is mapped to
the function whose symbol (from `nm`) covers it, and the shares are printed,
largest first.

It exists because the usual tools fall short on these binaries:
`gprofng` crashes on OCaml 5 fiber stacks, and `perf` is often not
installed. Only the main thread is sampled, which is where a single-domain
simulation runs (`perf.exe`, `bench/main.exe -j 1`); samples in shared
libraries or in code without a symbol are counted as `[unknown]`.

Usage (x86-64 Linux; the command's first word must be the executable):

    dune build ./perf/perf.exe
    python3 tools/sample_profile.py --interval-ms 1 --top 30 -- \\
        ./_build/default/perf/perf.exe --workload ycsb-c-100k --seconds 0

`--from-ms A --to-ms B` keeps only the samples taken between A and B ms
after the start (wall clock), e.g. a run's set-up phase alone.

A sample costs the child a stop and a resume (tens of microseconds), so
the child runs slower while sampled; the shares are what to read, not the
child's own timings. Not part of `dune runtest`.
"""

import argparse
import bisect
import ctypes
import ctypes.util
import os
import signal
import subprocess
import sys
import time

PTRACE_GETREGS = 12
PTRACE_CONT = 7
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
WALL = 0x40000000
RIP = 16  # index of rip in x86-64 struct user_regs_struct (27 words)

libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def symbols(exe):
    """Sorted (start addresses, names) of the text symbols of [exe]."""
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True,
                         text=True, check=True).stdout
    starts, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            starts.append(int(parts[0], 16))
            names.append(parts[2])
    return starts, names


def load_base(pid, exe):
    """Where the executable's offset 0 is mapped (0 for a non-PIE binary
    whose symbols already hold run-time addresses)."""
    real = os.path.realpath(exe)
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and os.path.realpath(fields[5]) == real and int(fields[2], 16) == 0:
                return int(fields[0].split("-")[0], 16)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--interval-ms", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--from-ms", type=float, default=0.0)
    ap.add_argument("--to-ms", type=float, default=float("inf"))
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    exe = cmd[0]
    starts, names = symbols(exe)

    t0 = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    pid = child.pid
    ptrace(PTRACE_SEIZE, pid)
    base = None
    regs = (ctypes.c_ulonglong * 27)()
    samples = []
    status = ctypes.c_int()
    exit_code = None
    while exit_code is None:
        time.sleep(args.interval_ms / 1000.0)
        ptrace(PTRACE_INTERRUPT, pid)
        # wait for the interrupt stop; pass any other signal stop through
        while True:
            if libc.waitpid(pid, ctypes.byref(status), WALL) == -1:
                exit_code = 1
                break
            st = status.value
            if os.WIFEXITED(st) or os.WIFSIGNALED(st):
                exit_code = os.waitstatus_to_exitcode(st)
                break
            sig = os.WSTOPSIG(st)
            if (st >> 16) == 0x80 or sig == signal.SIGTRAP:  # PTRACE_EVENT_STOP
                break
            ptrace(PTRACE_CONT, pid, None, sig)
        if exit_code is not None:
            break
        if base is None:
            base = load_base(pid, exe)
        ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
        if args.from_ms <= (time.monotonic() - t0) * 1000.0 < args.to_ms:
            samples.append(regs[RIP] - base)
        ptrace(PTRACE_CONT, pid, None, 0)

    counts = {}
    for ip in samples:
        i = bisect.bisect_right(starts, ip) - 1
        name = names[i] if i >= 0 and ip - starts[i] < (1 << 16) else "[unknown]"
        counts[name] = counts.get(name, 0) + 1
    total = max(1, len(samples))
    print(f"{len(samples)} samples, every {args.interval_ms:g} ms from {args.from_ms:g} "
          f"to {args.to_ms:g} ms, of: {' '.join(cmd)}")
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1])[: args.top]:
        print(f"{100.0 * n / total:6.1f} %  {n:7d}  {name}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
