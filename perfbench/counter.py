"""User-space instructions retired by this process and the children and
threads it starts, read from the CPU's hardware counter (perf_event_open).

On the shared virtual machine the benchmark was built on, the time of one
fixed operation varies by a quarter or more from run to run, because the
instructions per cycle vary with the load of the host's other guests, while
the clock rate and the instruction count stay put (`xp-spectrum --emax 12.5`:
24.35-24.46e9 instructions in six runs whose times spread from 2.14 to
2.96 s). The count is the steady measure of the work a command does.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6


class _Attr(ctypes.Structure):
    # struct perf_event_attr up to config2 (PERF_ATTR_SIZE_VER1, 72 bytes)
    _fields_ = [("type", ctypes.c_uint32), ("size", ctypes.c_uint32),
                ("config", ctypes.c_uint64), ("sample_period", ctypes.c_uint64),
                ("sample_type", ctypes.c_uint64), ("read_format", ctypes.c_uint64),
                ("flags", ctypes.c_uint64), ("wakeup_events", ctypes.c_uint32),
                ("bp_type", ctypes.c_uint32), ("config1", ctypes.c_uint64),
                ("config2", ctypes.c_uint64)]


class Unavailable(RuntimeError):
    pass


class InstructionCounter:
    """Counts from construction on; children forked and threads started
    later are counted too, each once it has ended."""

    def __init__(self) -> None:
        nr = _SYSCALL.get(platform.machine())
        if nr is None:
            raise Unavailable(f"no perf_event_open syscall number for {platform.machine()}")
        attr = _Attr(type=_PERF_TYPE_HARDWARE, size=ctypes.sizeof(_Attr),
                     config=_PERF_COUNT_HW_INSTRUCTIONS,
                     flags=_INHERIT | _EXCLUDE_KERNEL | _EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        libc.syscall.restype = ctypes.c_long
        # perf_event_open(attr, pid = 0: this process, cpu = -1: any,
        # group_fd = -1: none, flags = 0)
        fd = libc.syscall(ctypes.c_long(nr), ctypes.byref(attr), ctypes.c_int(0),
                          ctypes.c_int(-1), ctypes.c_int(-1), ctypes.c_ulong(0))
        if fd < 0:
            raise Unavailable(f"perf_event_open: {os.strerror(ctypes.get_errno())}")
        self.fd = fd

    def read(self) -> int:
        return struct.unpack("q", os.read(self.fd, 8))[0]

    def close(self) -> None:
        os.close(self.fd)
