// neo_e2e: the open-loop end-to-end benchmark.
//
//   neo_e2e [--workload NAME] [--seed N] [--seconds S] [--trace DIR]
//           [--json FILE] [--quick]
//
// Without --workload it runs every workload one after another, each in a
// child process (this binary re-executed with --workload NAME), so each
// workload's peak RSS is its own. Without --trace it runs the untraced pass
// (end-to-end metrics); with --trace DIR the traced pass (per-layer metrics,
// plus host spans and per-request records written under DIR).
//
// Prints `workload metric value unit` for every metric, writes --json, and
// exits 1 when any correctness check failed (2 on a usage error).
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "passes.hpp"

using namespace neo;
using namespace neo::e2e;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 0;
    std::string trace_dir;
    std::string json;
    bool quick = false;
    int report_fd = -1;  // child mode: write the report JSON here
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "neo_e2e: %s\nusage: neo_e2e [--workload NAME] [--seed N] [--seconds S] "
                 "[--trace DIR] [--json FILE] [--quick]\nworkloads:",
                 msg);
    for (const WorkloadDef& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--quick") {
            a.quick = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + f).c_str());
        const char* v = argv[++i];
        char* endp = nullptr;
        errno = 0;
        if (f == "--workload") {
            a.workload = v;
            if (!find_workload(a.workload)) usage(("unknown workload " + a.workload).c_str());
        } else if (f == "--seed") {
            a.seed = std::strtoull(v, &endp, 10);
        } else if (f == "--seconds") {
            a.seconds = std::strtod(v, &endp);
            if (a.seconds < 0) usage("--seconds must be >= 0");
        } else if (f == "--trace") {
            a.trace_dir = v;
        } else if (f == "--json") {
            a.json = v;
        } else if (f == "--report-fd") {
            a.report_fd = static_cast<int>(std::strtol(v, &endp, 10));
        } else {
            usage(("unknown flag " + f).c_str());
        }
        if (endp != nullptr && (*endp != '\0' || errno != 0 || endp == v)) {
            usage(("bad number for " + f).c_str());
        }
    }
    return a;
}

Report run_one(const Args& a, const WorkloadDef& w) {
    PassOptions o;
    o.seed = a.seed;
    o.seconds = a.seconds;
    o.quick = a.quick;
    o.trace_dir = a.trace_dir;
    return a.trace_dir.empty() ? run_untraced(w, o) : run_traced(w, o);
}

bool write_all(int fd, const std::string& s) {
    std::size_t off = 0;
    while (off < s.size()) {
        ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Re-executes this binary for one workload and reads back its report.
/// Returns false when the child failed without producing one.
bool run_child(const Args& a, const WorkloadDef& w, Report& out) {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    std::vector<std::string> args = {"neo_e2e", "--workload", w.name, "--seed",
                                     std::to_string(a.seed), "--seconds",
                                     std::to_string(a.seconds), "--report-fd",
                                     std::to_string(fds[1])};
    if (!a.trace_dir.empty()) {
        args.push_back("--trace");
        args.push_back(a.trace_dir);
    }
    if (a.quick) args.push_back("--quick");
    std::vector<char*> argv;
    for (std::string& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::execv("/proc/self/exe", argv.data());
        std::_Exit(127);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (text.empty()) return false;
    try {
        out = Report::from_json(bench::Json::parse(text));
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const Args a = parse(argc, argv);
    std::vector<Report> reports;
    bool ok = true;
    if (!a.workload.empty()) {
        reports.push_back(run_one(a, *find_workload(a.workload)));
        reports.back().print(stdout);
        if (a.report_fd >= 0) {
            const bool sent = write_all(a.report_fd, reports.back().to_json().dump());
            ::close(a.report_fd);
            if (!sent) return 1;
        }
    } else {
        for (const WorkloadDef& w : workloads()) {
            Report r(w.name, !a.trace_dir.empty());
            if (!run_child(a, w, r)) {
                std::fprintf(stderr, "neo_e2e: workload %s produced no report\n", w.name.c_str());
                ok = false;
                continue;
            }
            reports.push_back(std::move(r));
        }
    }
    for (const Report& r : reports) ok = ok && r.correct();

    if (!a.json.empty()) {
        bench::Json root = bench::Json::object();
        root.set("seed", bench::Json(static_cast<double>(a.seed)));
        root.set("quick", bench::Json(a.quick));
        root.set("correct", bench::Json(ok));
        bench::Json ws = bench::Json::array();
        for (const Report& r : reports) ws.push_back(r.to_json());
        root.set("workloads", std::move(ws));
        std::ofstream f(a.json, std::ios::trunc);
        f << root.dump() << "\n";
        if (!f) {
            std::fprintf(stderr, "neo_e2e: cannot write %s\n", a.json.c_str());
            return 1;
        }
    }
    return ok ? 0 : 1;
}
