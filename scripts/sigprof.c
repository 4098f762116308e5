/*
 * sigprof.c: a sampling profiler for frame-pointer builds on x86-64
 * Linux, loaded into any program with LD_PRELOAD, for machines without
 * `perf`.
 *
 *   gcc -O2 -shared -fPIC -o target/sigprof.so scripts/sigprof.c
 *   RUSTFLAGS="-C force-frame-pointers=yes" \
 *     CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
 *     cargo build --release --example failover
 *   SIGPROF_OUT=target/prof LD_PRELOAD=$PWD/target/sigprof.so \
 *     target/release/examples/failover
 *   python3 scripts/sigprof_report.py target/prof.*
 *
 * By default ITIMER_PROF counts the CPU time of every thread and raises
 * SIGPROF on the thread that used it, at the kernel's tick rate (CONFIG_HZ,
 * often 250 Hz). A program that finishes within a few ticks gets no
 * sample that way; SIGPROF_HZ=N instead samples the main thread's wall
 * clock N times a second with a high-resolution timer.
 *
 * The handler walks the interrupted thread's frame-pointer chain into a
 * static buffer. At exit the samples and /proc/self/maps go to
 * `$SIGPROF_OUT.<pid>` (default `sigprof.<pid>`), one file per process,
 * so a harness that runs each trial in a child process leaves one file
 * per trial. scripts/sigprof_report.py symbolises and aggregates them.
 *
 * Every frame is read with process_vm_readv on the process itself, so a
 * frame pointer that is really a general-purpose register (code built
 * without frame pointers, such as libc) ends the walk with EFAULT instead
 * of a crash.
 *
 * A sample whose interrupted instruction lies outside the main program
 * (libc's malloc and memmove, libm) is unwound from `.eh_frame` instead,
 * with glibc's backtrace(): the frame-pointer walk would lose the
 * shared object's caller, or stop inside it. backtrace() runs once at
 * load so that its lazy load of the unwinder (a dlopen, which allocates)
 * never happens inside the handler. If that unwind does not reach the
 * interrupted instruction, the sample takes the frame-pointer walk.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES (1 << 16)

/* Sample i is depth[i] program counters at pcs[i]; pcs[i][0] is the
 * interrupted instruction, the rest are return addresses. */
static uintptr_t pcs[MAX_SAMPLES][MAX_DEPTH];
static uint8_t depth[MAX_SAMPLES];
static unsigned next_sample;
static unsigned dropped;
static pid_t self;
/* The main program's executable segment. */
static uintptr_t exe_lo, exe_hi;

/* Read the (saved frame pointer, return address) pair at `fp`. */
static int read_frame(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self, &local, 1, &remote, 1, 0) ==
                   (ssize_t)(2 * sizeof(uintptr_t))
               ? 0
               : -1;
}

/* Unwind this handler's own stack from `.eh_frame` into `out`, starting
 * at the interrupted instruction `pc`; past the handler and the signal
 * trampoline, the unwinder steps into the interrupted frame. Returns the
 * depth, or 0 if the unwind never reached `pc`. */
static unsigned unwind_from(uintptr_t pc, uintptr_t *out) {
    void *frames[MAX_DEPTH + 8];
    int got = backtrace(frames, MAX_DEPTH + 8);
    for (int k = 0; k < got; k++) {
        if ((uintptr_t)frames[k] != pc)
            continue;
        unsigned n = 0;
        while (k < got && n < MAX_DEPTH)
            out[n++] = (uintptr_t)frames[k++];
        return n;
    }
    return 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    const mcontext_t *mc = &((const ucontext_t *)ctx)->uc_mcontext;
    uintptr_t *out = pcs[i];
    uintptr_t pc = (uintptr_t)mc->gregs[REG_RIP];
    if (pc < exe_lo || pc >= exe_hi) {
        unsigned n = unwind_from(pc, out);
        if (n > 0) {
            depth[i] = (uint8_t)n;
            return;
        }
    }
    unsigned n = 0;
    out[n++] = pc;
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    /* Frames live above the stack pointer and each caller's frame above
     * its callee's: anything else is not a frame chain. */
    while (n < MAX_DEPTH && fp >= sp && (fp & 7) == 0) {
        uintptr_t frame[2];
        if (read_frame(fp, frame) != 0 || frame[1] == 0)
            break;
        out[n++] = frame[1];
        sp = fp + 2 * sizeof(uintptr_t);
        fp = frame[0];
    }
    depth[i] = (uint8_t)n;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (getpid() != self)
        return; /* a fork that did not exec: its parent owns the samples */
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof", (int)self);
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    fputs("# maps\n", f);
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fputs(line, f);
    if (maps)
        fclose(maps);
    unsigned n = next_sample < MAX_SAMPLES ? next_sample : MAX_SAMPLES;
    fprintf(f, "# samples %u dropped %u\n", n, dropped);
    for (unsigned i = 0; i < n; i++) {
        for (unsigned d = 0; d < depth[i]; d++)
            fprintf(f, d ? " %lx" : "%lx", (unsigned long)pcs[i][d]);
        fputc('\n', f);
    }
    fclose(f);
}

/* dl_iterate_phdr callback: the first object is the main program. */
static int find_exe(struct dl_phdr_info *obj, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int k = 0; k < obj->dlpi_phnum; k++) {
        const ElfW(Phdr) *ph = &obj->dlpi_phdr[k];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            exe_lo = obj->dlpi_addr + ph->p_vaddr;
            exe_hi = exe_lo + ph->p_memsz;
        }
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    self = getpid();
    dl_iterate_phdr(find_exe, NULL);
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    const char *hz = getenv("SIGPROF_HZ");
    if (hz && atol(hz) > 0) {
        /* Wall clock at `hz` on the main thread: a high-resolution timer,
         * for programs that finish within a few ticks. */
        long ns = 1000000000L / atol(hz);
        struct sigevent sev;
        memset(&sev, 0, sizeof sev);
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGPROF;
        sev._sigev_un._tid = gettid();
        timer_t timer;
        struct itimerspec every = {{0, ns}, {0, ns}};
        if (timer_create(CLOCK_MONOTONIC, &sev, &timer) == 0)
            timer_settime(timer, 0, &every, NULL);
        return;
    }
    /* 1 ms of CPU: the tick, not this interval, sets the real rate. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}
