/*
 * pcsample: a timer-driven program-counter sampler, loaded with
 * LD_PRELOAD into an unmodified binary.
 *
 * A CLOCK_MONOTONIC POSIX timer raises SIGPROF every 100 us of wall
 * time; the handler records the interrupted instruction pointer.  At
 * exit the sampler writes pcsample.<pid>.txt in the working
 * directory: a header, one "map" line per executable segment of every
 * loaded object (from dl_iterate_phdr), then one sample address per
 * line.  symbolize.py turns that file into a profile.  It needs no
 * PMU, no perf and no privileges.
 *
 * Build and run (usage in full: symbolize.py --help):
 *
 *   cc -O2 -shared -fPIC -o build/pcsample.so scripts/pcsample/pcsample.c
 *   LD_PRELOAD=$PWD/build/pcsample.so ./build/bench/fig7_timeline_mid3 jobs=1
 *   python3 scripts/pcsample/symbolize.py pcsample.<pid>.txt
 *
 * The signal goes to whichever thread is running, so profile a
 * single-threaded run (jobs=1).  Up to MaxSamples samples are kept
 * (about 400 s at 100 us); later ones are counted as dropped.  A run
 * that ends in _exit() or a fatal signal writes nothing.
 */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { IntervalUs = 100, MaxSamples = 1 << 22 };

static uintptr_t samples[MaxSamples];
static volatile sig_atomic_t running;
static unsigned long ticks;    /* handler calls while running */
static timer_t timer;

static void
onTick(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    if (!running)
        return;
    const ucontext_t *uc = (const ucontext_t *)ctx;
    const unsigned long i = __atomic_fetch_add(&ticks, 1, __ATOMIC_RELAXED);
    if (i < MaxSamples)
        samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void
start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onTick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("pcsample: sigaction");
        return;
    }
    struct sigevent sev;
    memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
        perror("pcsample: timer_create");
        return;
    }
    struct itimerspec its;
    memset(&its, 0, sizeof its);
    its.it_interval.tv_nsec = IntervalUs * 1000L;
    its.it_value = its.it_interval;
    running = 1;
    if (timer_settime(timer, 0, &its, NULL) != 0) {
        running = 0;
        perror("pcsample: timer_settime");
    }
}

/* One "map <lo> <hi> <bias> <path>" line per executable PT_LOAD. */
static int
writeMaps(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    FILE *out = (FILE *)data;
    char exe[4096];
    const char *path = info->dlpi_name;
    if (path == NULL || path[0] == '\0') {
        /* The main program has no name here; ask the kernel. */
        const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (n <= 0)
            return 0;
        exe[n] = '\0';
        path = exe;
    }
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X))
            continue;
        const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        fprintf(out, "map %lx %lx %lx %s\n", (unsigned long)lo,
                (unsigned long)(lo + ph->p_memsz),
                (unsigned long)info->dlpi_addr, path);
    }
    return 0;
}

__attribute__((destructor)) static void
finish(void)
{
    if (!running)
        return;
    running = 0;
    timer_delete(timer);
    const unsigned long taken = ticks < MaxSamples ? ticks : MaxSamples;
    char name[64];
    snprintf(name, sizeof name, "pcsample.%ld.txt", (long)getpid());
    FILE *out = fopen(name, "w");
    if (out == NULL) {
        perror("pcsample: fopen");
        return;
    }
    fprintf(out, "pcsample interval_us=%d samples=%lu dropped=%lu\n",
            IntervalUs, taken, ticks - taken);
    dl_iterate_phdr(writeMaps, out);
    for (unsigned long i = 0; i < taken; ++i)
        fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fclose(out);
    fprintf(stderr, "pcsample: %lu samples written to %s\n", taken, name);
}
