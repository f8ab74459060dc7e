#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

double Histogram::percentile_us(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0 || seen + counts_[i] < rank) {
      seen += counts_[i];
      continue;
    }
    // Bucket i covers [low, low + width) ns; place the rank inside it.
    const std::size_t half = std::size_t{1} << (kSubBits - 1);
    const int shift = i < 2 * half ? 0 : static_cast<int>(i / half) - 1;
    const double low = i < 2 * half ? static_cast<double>(i)
                                    : std::ldexp(static_cast<double>(i % half + half), shift);
    const double width = std::ldexp(1.0, shift);
    const double within = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[i]);
    return (low + width * within) / 1e3;
  }
  return 0.0;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
  std::printf("metric %-34s %14.4f %-8s n=%llu\n", name.c_str(), value,
              unit.c_str(), static_cast<unsigned long long>(samples));
}

void Report::check(const std::string& name, bool passed,
                   const std::string& detail) {
  checks_.emplace_back(name, passed);
  if (!passed) correct_ = false;
  std::printf("check %s: %s (%s)\n", name.c_str(), passed ? "pass" : "FAIL",
              detail.c_str());
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
  std::printf("info %s=%s\n", key.c_str(), value.c_str());
}

bool Report::finish(const std::vector<std::string>& names,
                    const std::filesystem::path& results_file) const {
  std::ostringstream gated;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Metric& m) { return m.name == names[i]; });
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   names[i].c_str());
      return false;
    }
    gated << (i == 0 ? "" : ", ") << '"' << it->name << "\": {\"value\": "
          << json_number(it->value) << ", \"unit\": \"" << it->unit << "\"}";
  }
  std::ostringstream all;
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    all << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << json_number(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << '}';
  }
  std::ostringstream info;
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    info << (i == 0 ? "" : ", ") << '"' << json_escape(notes_[i].first)
         << "\": \"" << json_escape(notes_[i].second) << '"';
  }
  std::ostringstream checks;
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    checks << (i == 0 ? "" : ", ") << '"' << json_escape(checks_[i].first)
           << "\": " << (checks_[i].second ? "true" : "false");
  }
  const std::string counts = std::string("{\"correct\": ") +
                             (correct_ ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted_) +
                             ", \"failed\": " + std::to_string(failed_);
  if (std::ofstream out(results_file, std::ios::app); out) {
    out << counts << ", \"metrics\": {" << all.str() << "}, \"checks\": {"
        << checks.str() << "}, \"info\": {" << info.str() << "}}\n";
  }
  std::printf("%s, \"metrics\": {%s}}\n", counts.c_str(), gated.str().c_str());
  std::fflush(stdout);
  return true;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

pid_t Children::spawn(const std::vector<std::string>& args,
                      const std::filesystem::path& log) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    // Inherited sockets would keep torn connections half-alive.
    for (int f = 3; f < 1024; ++f) ::close(f);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  if (pid > 0) pids_.push_back(pid);
  return pid;
}

void Children::stop_all() {
  for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
  for (const pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
  pids_.clear();
}

}  // namespace perfbench
