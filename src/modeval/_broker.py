"""The fork server of ``sandbox``: run as a script, it reads one JSON request a
line from stdin, runs it in a forked child, and writes one JSON reply a line.

It imports only the standard library, never ``modeval``, and importing it does
nothing: a test can call its functions.
"""

import atexit, builtins, gc, io, json, os, resource, select, signal, sys, time, warnings

MAXFD = os.sysconf("SC_OPEN_MAX")
CHILDREN = f"/proc/self/task/{os.getpid()}/children"
POLL = 0.004  # only where there is no pidfd
ENCODING, ERRORS = sys.stdout.encoding, sys.stdout.errors
# the run's fds 0-2, in its working directory; stdout and stderr are read back through them
STDIO = (("stdin.txt", os.O_RDONLY),
         ("stdout.txt", os.O_RDWR | os.O_CREAT | os.O_TRUNC),
         ("stderr.txt", os.O_RDWR | os.O_CREAT | os.O_TRUNC))


def become_subreaper():
    # orphaned descendants of a run re-parent to this process, which kills them
    if sys.platform.startswith("linux"):
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def kill_descendants():
    while True:
        try:
            with open(CHILDREN) as fh:
                pids = [int(p) for p in fh.read().split()]
        except OSError:  # no /proc children list: not Linux
            return
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:  # their own children re-parent here: list again
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def stdio(fd, mode, errors):
    # built as the interpreter builds sys.stdin, sys.stdout and sys.stderr for files:
    # stdout block-buffered, stderr line-buffered
    buf = open(fd, mode + "b", closefd=False)
    buf.raw.name = ("<stdin>", "<stdout>", "<stderr>")[fd]
    stream = io.TextIOWrapper(buf, ENCODING, errors, "\n", line_buffering=fd == 2)
    stream.mode = mode
    return stream


def exit_status(code):
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    sys.stderr.write(f"{code}\n")
    return 1


def compiled(path):
    # Compiled here, warm: compiling in the fresh child costs several times
    # more.  On an error or a warning the child compiles again and reports it
    # on its own stderr.
    with open(path, "rb") as fh:
        source = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return compile(source, path, "exec", dont_inherit=True)
        except Exception:
            return None


def run_program(path, code):
    sys.stdin = sys.__stdin__ = stdio(0, "r", ERRORS)
    sys.stdout = sys.__stdout__ = stdio(1, "w", ERRORS)
    sys.stderr = sys.__stderr__ = stdio(2, "w", "backslashreplace")
    sys.argv = [path]
    sys.path.insert(0, os.path.dirname(path))
    main = type(sys)("__main__")
    main.__file__, main.__cached__, main.__builtins__ = path, None, builtins
    sys.modules["__main__"] = main
    try:
        if code is None:
            with open(path, "rb") as fh:
                code = compile(fh.read(), path, "exec", dont_inherit=True)
        exec(code, vars(main))
        status = 0
    except SystemExit as exc:
        status = exit_status(exc.code)
    except BaseException as exc:
        tb = exc.__traceback__.tb_next  # from the program's frame on
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        # the interpreter re-raises an uncaught Ctrl-C as SIGINT
        status = -signal.SIGINT if isinstance(exc, KeyboardInterrupt) else 1
    # Not via interpreter finalization: tearing down the inherited broker heap adds ~8 ms a run.
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()  # wait for non-daemon threads
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or getattr(stream, "closed", False):
            continue
        try:
            stream.flush()
        except Exception as exc:
            if stream is sys.stdout:
                sys.stderr.write(f"Exception ignored in: {stream!r}\n")
                sys.__excepthook__(type(exc), exc.with_traceback(None), None)
            status = 120
    # Then, as the interpreter's shutdown does: collect garbage, put the
    # original streams back, free the program's globals (an unclosed file
    # flushes as it closes), collect again and flush once more, ignoring
    # failures this time.
    gc.collect()
    sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, sys.__stdout__, sys.__stderr__
    names = vars(main)
    for name in list(names):
        if name != "__builtins__":
            names[name] = None
    gc.collect()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            pass
    return status


def child(req, stdio_fds, err_w, code):
    # never returns: a failure before the program runs goes to err_w
    status = 127
    try:
        try:
            os.setsid()
            for limit, value in ((resource.RLIMIT_AS, req["as_bytes"]),
                                 (resource.RLIMIT_FSIZE, req["fsize_bytes"])):
                resource.setrlimit(limit, (value, value))
            os.chdir(req["cwd"])
            for fd, opened in enumerate(stdio_fds):
                os.dup2(opened, fd)
            os.closerange(3, err_w)
            os.closerange(err_w + 1, MAXFD)
            if req["argv"]:
                for sig in (signal.SIGPIPE, signal.SIGXFSZ):  # as subprocess restores them
                    signal.signal(sig, signal.SIG_DFL)
                os.execvp(req["argv"][0], req["argv"])
        except BaseException as exc:
            os.write(err_w, f"{type(exc).__name__}: {exc}".encode())
            return
        os.close(err_w)
        status = run_program(req["file"], code)
        if status < 0:
            signal.signal(-status, signal.SIG_DFL)
            os.kill(os.getpid(), -status)
    finally:
        os._exit(status)


def reap(pid, deadline):
    # (wait status, rusage, timed out); past the deadline the child's group is killed
    try:
        pidfd = os.pidfd_open(pid)
    except (AttributeError, OSError):  # no pidfd here: poll
        while time.perf_counter() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, False
            time.sleep(POLL)
    else:
        try:
            exited = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))[0]
        finally:
            os.close(pidfd)
        if exited:
            _, status, usage = os.wait4(pid, 0)
            return status, usage, False
    try:
        os.killpg(pid, signal.SIGKILL)  # the child leads its own group
    except ProcessLookupError:
        pass
    _, status, usage = os.wait4(pid, 0)
    return status, usage, True


def run(req):
    fds = []
    try:
        try:
            for name, flags in STDIO:
                fds.append(os.open(os.path.join(req["cwd"], name), flags, 0o644))
        except OSError as exc:
            return {"spawn_error": f"{type(exc).__name__}: {exc}"}
        return run_on(req, fds)
    finally:
        for fd in fds:
            os.close(fd)


def run_on(req, stdio_fds):
    start = time.perf_counter()  # the deadline's, so that wall_time bounds compile and run
    code, compile_time = None, 0.0
    if not req["argv"]:
        code = compiled(req["file"])
        compile_time = time.perf_counter() - start
    err_r, err_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(err_r)
        os.close(err_w)
        return {"spawn_error": f"fork: {exc}"}
    if pid == 0:
        os.close(err_r)
        child(req, stdio_fds, err_w, code)
    os.close(err_w)
    with open(err_r, "rb") as fh:
        error = fh.read()  # EOF once the program starts
    if error:
        os.waitpid(pid, 0)
        return {"spawn_error": error.decode("utf-8", "replace")}
    status, usage, timed_out = reap(pid, start + req["wall_time"])
    wall = time.perf_counter() - start - compile_time
    kill_descendants()  # so nothing writes to stdout or stderr while they are read
    out_fd, err_fd = stdio_fds[1:]
    return {"exit_code": os.waitstatus_to_exitcode(status), "timed_out": timed_out,
            "compile": compile_time, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": os.pread(out_fd, req["cap"], 0).decode("utf-8", "replace"),
            "stderr": os.pread(err_fd, req["cap"], 0).decode("utf-8", "replace"),
            "stdout_size": os.fstat(out_fd).st_size}


if __name__ == "__main__":
    del sys.path[0]  # this file's directory: candidates import nothing from the package
    become_subreaper()
    gc.freeze()  # the broker's objects stay out of every child's collections
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    # Every reply is flushed and every run reaped, and nothing is registered
    # with atexit: finalizing the interpreter would only add to the exit.
    os._exit(0)
