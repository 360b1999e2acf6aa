/*
 * peak_rss: runs a command and reports its peak resident set size.
 *
 *     cc -O2 -o peak_rss ci/peak_rss.c
 *     ./peak_rss target/release/repro all tiny --jobs 1 > /dev/null
 *
 * The child's stdout and stdin are the launcher's own; its exit status
 * is passed through. The last stderr line is `peak_rss_kb <N>`, the
 * child's ru_maxrss from wait4. A forked child starts with its
 * parent's resident pages counted, so measuring from a small C parent
 * keeps that floor near 1 MB, where a Python parent adds its own ~14 MB.
 */
#include <stdio.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: %s PROGRAM [ARG...]\n", argv[0]);
        return 2;
    }
    pid_t pid = fork();
    if (pid < 0) {
        perror("fork");
        return 2;
    }
    if (pid == 0) {
        execv(argv[1], argv + 1);
        perror("execv");
        _exit(127);
    }
    int status = 0;
    struct rusage usage;
    if (wait4(pid, &status, 0, &usage) < 0) {
        perror("wait4");
        return 2;
    }
    fprintf(stderr, "peak_rss_kb %ld\n", usage.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
