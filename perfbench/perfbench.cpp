// Serving benchmark driver: runs one generated workload through
// serve::Engine::run (paged KV memory, prefix cache on, engine-built
// Keyformer policy at cache_ratio 0.5) and prints the raw measurements as
// one JSON object on the last line of stdout. run.py turns them into the
// benchmark's metrics; README.md in this directory explains the workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --workload NAME --seed N --describe
//
// A run sets the engine up kSetupReps times (model build, workload
// generation, engine construction, one short warm-up run) and keeps the
// last. It then repeats the timed Engine::run pass until --seconds is used
// up (at least once). With --trace 1 untraced and traced passes alternate
// and each traced pass writes its Chrome trace into DIR. Outside the timed
// region a fixed subset of requests is rerun batch-of-one with the prefix
// cache off (must match token for token), and every pass must reproduce
// the first pass's tokens. ROUGE-2 fidelity compares Keyformer against
// full attention on a fixed probe: the workload at kProbeSeed, in one
// batch. run.py judges the check counts. Exit code 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/parse.h"
#include "core/rng.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "data/fewshot.h"
#include "data/synthetic.h"
#include "eval/rouge.h"
#include "model/transformer.h"
#include "obs/trace.h"
#include "serve/engine.h"

using namespace kf;

namespace {

constexpr std::size_t kSetupReps = 5;
/// Requests rerun batch-of-one with the prefix cache off (the token-match
/// check), spread over the workload.
constexpr std::size_t kCheckRequests = 12;
constexpr std::size_t kWarmupRequests = 8;
constexpr std::size_t kWarmupTokens = 8;
constexpr std::size_t kBlockTokens = 16;
constexpr double kCacheRatio = 0.5;
/// The fidelity probe is the workload generated at this seed. A seeded
/// probe would make rouge2_fidelity vary from seed to seed by more than
/// any eviction change worth catching.
constexpr std::uint64_t kProbeSeed = 0;

/// One generated workload: the requests plus the scheduler caps it runs
/// under. Everything else about the engine is the same for every workload.
struct Workload {
  std::vector<serve::Request> requests;
  std::size_t max_batch = 0;
  std::size_t kv_budget = 0;  ///< per-layer tokens; 0 = unlimited
};

serve::Request make_request(std::uint64_t id, std::vector<model::Token> prompt,
                            std::size_t gen_tokens, std::size_t arrival) {
  serve::Request req;
  req.id = id;
  req.prompt = std::move(prompt);
  req.arrival_step = arrival;
  req.gen.max_new_tokens = gen_tokens;
  req.gen.cache_ratio = kCacheRatio;
  return req;
}

/// Waves of chat turns, summaries and long reports under a tight batch cap
/// and KV budget: admission, preemption/resume and prefill.
Workload mixed_pressure(std::uint64_t seed) {
  data::DialogueConfig chat;
  chat.n_turns = 2;
  chat.turn_len = 24;
  chat.seed = hash_combine(seed, 0xC4A7);
  data::SummarizationConfig summary;
  summary.doc_len = 128;
  summary.seed = hash_combine(seed, 0x5A11);
  data::LongReportConfig report;
  report.doc_len = 256;
  report.seed = hash_combine(seed, 0x4E90);

  // Ten waves of ten; within a wave the arrivals spread over ~20 steps,
  // faster than a batch of 8 drains them.
  constexpr std::size_t kWaves = 10;
  constexpr std::size_t kWaveSteps = 128;
  Workload w;
  w.max_batch = 8;
  w.kv_budget = 600;
  std::uint64_t id = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    const std::size_t base = wave * kWaveSteps;
    for (std::size_t i = 0; i < 6; ++i) {
      w.requests.push_back(make_request(
          id++, data::make_dialogue_sample(chat, wave * 6 + i).prompt, 16,
          base + 3 * i));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      w.requests.push_back(make_request(
          id++, data::make_summarization_sample(summary, wave * 3 + i).prompt,
          24, base + 4 + 6 * i));
    }
    w.requests.push_back(make_request(
        id++, data::make_long_report_sample(report, wave).prompt, 32,
        base + 8));
  }
  return w;
}

/// One offline batch of long reports with long generations, all at step 0;
/// the batch cap covers every request and memory is unlimited.
Workload offline_decode(std::uint64_t seed) {
  data::LongReportConfig report;
  report.doc_len = 128;
  report.seed = hash_combine(seed, 0x0FF1);
  constexpr std::size_t kRequests = 100;
  Workload w;
  w.max_batch = kRequests;
  w.kv_budget = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    w.requests.push_back(make_request(
        i, data::make_long_report_sample(report, i).prompt, 160, 0));
  }
  return w;
}

/// Short questions behind one ~512-token few-shot context, arriving one
/// every other step: prefill becomes prefix adopt plus copy-on-write.
/// The context is the deployment's fixed system prompt and does not
/// change with the seed; only the questions do. (Every request shares it,
/// so a seeded context would make the whole run's fidelity hinge on one
/// draw.)
Workload shared_prefix(std::uint64_t seed) {
  constexpr std::size_t kContextTokens = 512;
  data::McqConfig shots;
  shots.seed = 0x5E7C;
  shots.n_shots = kContextTokens / (shots.passage_len / 3 + 3) + 1;
  std::vector<model::Token> context = data::make_mcq_sample(shots, 0).prompt;
  context.resize(kContextTokens);

  data::McqConfig question;
  question.passage_len = 32;
  question.seed = hash_combine(seed, 0x0A5C);
  constexpr std::size_t kRequests = 100;
  Workload w;
  w.max_batch = 16;
  w.kv_budget = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::vector<model::Token> q =
        data::make_mcq_sample(question, i).prompt;
    std::vector<model::Token> prompt = context;
    prompt.insert(prompt.end(), q.begin() + 1, q.end());  // drop its <bos>
    serve::Request req = make_request(i, std::move(prompt), 16, 2 * i);
    req.shared_prefix_hint = context.size();
    w.requests.push_back(std::move(req));
  }
  return w;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "mixed_pressure") return mixed_pressure(seed);
  if (name == "offline_decode") return offline_decode(seed);
  if (name == "shared_prefix") return shared_prefix(seed);
  return std::nullopt;
}

serve::EngineConfig engine_config(const Workload& w) {
  serve::EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = w.max_batch;
  ec.scheduler.max_concurrent_tokens = w.kv_budget;
  ec.paged.enabled = true;
  ec.paged.block_tokens = kBlockTokens;
  ec.prefix.enabled = true;
  return ec;
}

/// Reference engine for the output checks: same paged memory, no prefix
/// cache, no memory cap, `policy` as its eviction policy.
serve::EngineConfig reference_config(kv::PolicyKind policy,
                                     std::size_t max_batch) {
  serve::EngineConfig ec;
  ec.policy.kind = policy;
  ec.scheduler.max_batch_size = max_batch;
  ec.paged.enabled = true;
  ec.paged.block_tokens = kBlockTokens;
  return ec;
}

/// Mean ROUGE-2 F1 of the Keyformer outputs of `requests` against their
/// full-attention outputs. Each policy serves all of them in one batch with
/// the prefix cache on: outputs do not depend on batch composition or
/// prefix reuse, which the token-match check covers.
double rouge2_fidelity(model::Transformer& model,
                       std::vector<serve::Request> requests) {
  const auto serve_all = [&](kv::PolicyKind policy, double cache_ratio) {
    for (serve::Request& r : requests) {
      r.arrival_step = 0;
      r.gen.cache_ratio = cache_ratio;
    }
    serve::EngineConfig cfg = reference_config(policy, requests.size());
    cfg.prefix.enabled = true;
    serve::Engine engine(model, cfg);
    return engine.run(requests);
  };
  const std::vector<serve::Response> served =
      serve_all(kv::PolicyKind::kKeyformer, kCacheRatio);
  const std::vector<serve::Response> dense =
      serve_all(kv::PolicyKind::kFull, 1.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sum += eval::rouge_n(served[i].tokens, dense[i].tokens, 2).f1;
  }
  return sum / static_cast<double>(requests.size());
}

/// FNV-1a over every request field the engine reads.
std::uint64_t digest(const std::vector<serve::Request>& requests) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const serve::Request& r : requests) {
    mix(r.id);
    mix(r.arrival_step);
    mix(r.gen.max_new_tokens);
    mix(r.shared_prefix_hint);
    mix(r.prompt.size());
    for (const model::Token t : r.prompt) mix(static_cast<std::uint64_t>(t));
  }
  return h;
}

/// Minimal JSON object writer (numbers at full precision).
class JsonObject {
 public:
  JsonObject() { out_ << std::setprecision(17) << '{'; }
  JsonObject& key(const std::string& k) {
    if (!first_) out_ << ',';
    first_ = false;
    out_ << '"' << k << "\":";
    return *this;
  }
  template <typename T>
  JsonObject& num(const std::string& k, T v) {
    key(k);
    out_ << v;
    return *this;
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    key(k);
    out_ << '"' << v << '"';  // callers pass plain identifiers and paths
    return *this;
  }
  JsonObject& boolean(const std::string& k, bool v) {
    key(k);
    out_ << (v ? "true" : "false");
    return *this;
  }
  template <typename T>
  JsonObject& array(const std::string& k, const std::vector<T>& v) {
    key(k);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ << (i > 0 ? "," : "") << v[i];
    }
    out_ << ']';
    return *this;
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    key(k);
    out_ << json;
    return *this;
  }
  std::string done() {
    out_ << '}';
    return out_.str();
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string stats_json(const serve::EngineStats& st) {
  JsonObject o;
  o.num("steps", st.steps)
      .num("decoded_tokens", st.decoded_tokens)
      .num("prefilled_tokens", st.prefilled_tokens)
      .num("max_batch", st.max_batch)
      .num("pool_peak_used_blocks", st.pool_peak_used_blocks)
      .num("max_fragmentation", st.max_fragmentation)
      .num("prefix_hits", st.prefix_hits)
      .num("prefix_misses", st.prefix_misses)
      .num("prefix_tokens_reused", st.prefix_tokens_reused)
      .num("prefix_cow_copies", st.prefix_cow_copies)
      .num("preemptions", st.preemptions)
      .num("resume_replayed_tokens", st.resume_replayed_tokens)
      .num("reservation_retries", st.reservation_retries)
      .num("alloc_failures", st.alloc_failures)
      .num("eviction_decisions", st.eviction_decisions)
      .num("evicted_tokens", st.evicted_tokens)
      .num("prefill_seconds", st.prefill_seconds)
      .num("decode_seconds", st.decode_seconds);
  return o.done();
}

bool succeeded(const serve::Response& r, const serve::Request& req) {
  return (r.finish == serve::FinishReason::kLength ||
          r.finish == serve::FinishReason::kEos) &&
         r.tokens.size() == req.gen.max_new_tokens;
}

/// Everything one configured engine needs; rebuilt kSetupReps times.
struct Setup {
  std::unique_ptr<model::Transformer> model;
  Workload workload;
  std::unique_ptr<serve::Engine> engine;
};

Setup build_setup(const std::string& name, std::uint64_t seed) {
  Setup s;
  model::ModelConfig cfg = model::ModelConfig::gptj_like();
  cfg.max_seq_len = 4096;
  s.model = std::make_unique<model::Transformer>(cfg);
  s.workload = *make_workload(name, seed);
  s.engine =
      std::make_unique<serve::Engine>(*s.model, engine_config(s.workload));
  // Warm-up: the first few requests, shortened and all present at step 0,
  // so thread-pool start, page faults and first-touch allocations happen
  // before the clock starts. The prefix cache is emptied afterwards so
  // every timed pass starts from the same state.
  const std::size_t n = std::min(kWarmupRequests, s.workload.requests.size());
  std::vector<serve::Request> warm(s.workload.requests.begin(),
                                   s.workload.requests.begin() +
                                       static_cast<std::ptrdiff_t>(n));
  for (serve::Request& r : warm) {
    r.arrival_step = 0;
    r.gen.max_new_tokens = std::min(r.gen.max_new_tokens, kWarmupTokens);
  }
  (void)s.engine->run(warm);
  s.engine->clear_prefix_cache();
  return s;
}

/// CPU time of the whole process (every thread, user + system). The
/// kernel leaves time stolen by the hypervisor out of it.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

[[noreturn]] void usage_exit(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: perfbench --workload "
               "mixed_pressure|offline_decode|shared_prefix --seed N "
               "[--seconds S --trace 0|1 --out DIR | --describe]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool describe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_exit(arg + " expects a value");
      return argv[++i];
    };
    const auto count = [&]() {
      const std::string v = next();
      const auto parsed = parse_count(v.c_str());
      if (!parsed.has_value()) usage_exit(arg + " expects a count");
      return static_cast<std::uint64_t>(*parsed);
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--seed") {
      seed = count();
    } else if (arg == "--seconds") {
      seconds = static_cast<double>(count());
    } else if (arg == "--trace") {
      trace = count() != 0;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--describe") {
      describe = true;
    } else {
      usage_exit("unknown argument " + arg);
    }
  }
  if (!make_workload(workload_name, 0).has_value()) {
    usage_exit("unknown workload \"" + workload_name + "\"");
  }

  if (describe) {
    const Workload w = *make_workload(workload_name, seed);
    std::size_t prompt_tokens = 0;
    std::size_t gen_tokens = 0;
    for (const serve::Request& r : w.requests) {
      prompt_tokens += r.prompt.size();
      gen_tokens += r.gen.max_new_tokens;
    }
    JsonObject o;
    o.str("workload", workload_name)
        .num("seed", seed)
        .num("requests", w.requests.size())
        .num("prompt_tokens", prompt_tokens)
        .num("gen_tokens", gen_tokens)
        .num("max_batch", w.max_batch)
        .num("kv_budget", w.kv_budget)
        .num("last_arrival", w.requests.back().arrival_step)
        .str("digest", std::to_string(digest(w.requests)));
    std::cout << o.done() << '\n';
    return 0;
  }
  if (out_dir.empty()) usage_exit("--out is required for a measured run");

  // Set-up, repeated; the last one is kept for the measurement.
  std::vector<double> setup_s;
  Setup setup;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};
    const double t0 = now_seconds();
    setup = build_setup(workload_name, seed);
    setup_s.push_back(now_seconds() - t0);
  }
  const std::vector<serve::Request>& requests = setup.workload.requests;
  serve::Engine& engine = *setup.engine;
  const model::ModelConfig& mcfg = setup.model->config();
  const double block_bytes =
      2.0 * static_cast<double>(engine.pool()->section_floats()) *
      sizeof(float);

  // Timed passes over the whole workload. Each pass after the first must
  // reproduce its tokens.
  std::vector<std::string> passes;  // one JSON record each
  std::vector<std::vector<model::Token>> first_tokens;
  std::size_t pass_mismatches = 0;
  std::size_t traced_passes = 0;
  const double t_measure = now_seconds();
  for (;;) {
    const double elapsed = now_seconds() - t_measure;
    if (!passes.empty()) {
      const double per_pass = elapsed / static_cast<double>(passes.size());
      const bool need_traced = trace && traced_passes == 0;
      if (!need_traced && elapsed + per_pass > seconds) break;
    }
    const bool traced = trace && passes.size() % 2 == 1;
    double wall_s = 0.0;
    engine.clear_prefix_cache();
    const double cpu0 = process_cpu_seconds();
    std::size_t trace_events = 0;
    std::size_t trace_dropped = 0;
    std::string trace_file;
    std::vector<serve::Response> responses;
    if (traced) {
      obs::trace_reset();
      obs::set_trace_enabled(true);
      const double t0 = now_seconds();
      {
        obs::TraceScope span("bench.pass", "bench");
        responses = engine.run(requests);
      }
      wall_s = now_seconds() - t0;
      obs::set_trace_enabled(false);
      trace_events = obs::trace_event_count();
      trace_dropped = obs::trace_dropped_count();
      trace_file = out_dir + "/trace_" + std::to_string(traced_passes) +
                   ".json";
      if (!obs::write_chrome_trace(trace_file)) {
        std::cerr << "error: cannot write " << trace_file << '\n';
        return 1;
      }
      ++traced_passes;
    } else {
      const double t0 = now_seconds();
      responses = engine.run(requests);
      wall_s = now_seconds() - t0;
    }

    const double cpu_s = process_cpu_seconds() - cpu0;

    std::vector<double> ttft;
    std::vector<double> tpot;
    std::vector<double> queue_wait;
    std::size_t ok = 0;
    std::size_t output_tokens = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const serve::Response& r = responses[i];
      if (passes.empty()) {
        first_tokens.push_back(r.tokens);
      } else if (r.tokens != first_tokens[i]) {
        ++pass_mismatches;
      }
      if (!succeeded(r, requests[i])) continue;
      ++ok;
      output_tokens += r.tokens.size();
      ttft.push_back(r.ttft_seconds);
      queue_wait.push_back(r.queue_wait_seconds);
      if (r.inter_token.count > 0) tpot.push_back(r.inter_token.mean());
    }
    const serve::EngineStats st = engine.stats();
    JsonObject o;
    o.boolean("traced", traced)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .num("ok", ok)
        .num("rejected", st.rejections)
        .num("timeouts", st.timeouts)
        .num("output_tokens", output_tokens)
        .num("kv_peak_mb",
             static_cast<double>(st.pool_peak_used_blocks) * block_bytes /
                 (1024.0 * 1024.0))
        .array("ttft_s", ttft)
        .array("tpot_s", tpot)
        .array("queue_wait_s", queue_wait)
        .raw("stats", stats_json(st));
    if (traced) {
      o.str("trace_file", trace_file)
          .num("trace_events", trace_events)
          .num("trace_dropped", trace_dropped);
    }
    passes.push_back(o.done());
    std::cerr << "pass " << passes.size() << (traced ? " (traced)" : "")
              << ": " << wall_s << " s\n";
  }

  const double serving_peak_rss_mb = peak_rss_mb();

  // Output checks, outside the timed region. Token match: a fixed subset
  // rerun one request at a time with the prefix cache off.
  serve::Engine batch_of_one(*setup.model,
                             reference_config(kv::PolicyKind::kKeyformer, 1));
  std::vector<std::uint64_t> mismatched;
  const std::size_t n_check = std::min(kCheckRequests, requests.size());
  for (std::size_t k = 0; k < n_check; ++k) {
    // A stride one past the even spacing walks through every position of
    // a repeating traffic pattern (mixed_pressure's waves).
    const std::size_t idx =
        k * (requests.size() / n_check + 1) % requests.size();
    serve::Request req = requests[idx];
    req.arrival_step = 0;
    const std::vector<serve::Response> ref = batch_of_one.run({&req, 1});
    if (ref[0].tokens != first_tokens[idx]) mismatched.push_back(req.id);
  }
  // Fidelity, on the probe: the workload at kProbeSeed, whatever --seed
  // is, so the figure moves only when the program does.
  const Workload probe = *make_workload(workload_name, kProbeSeed);
  const double rouge2 = rouge2_fidelity(*setup.model, probe.requests);

  std::size_t prompt_tokens = 0;
  double prefill_key_sum = 0.0;
  double decode_key_sum = 0.0;
  std::size_t gen_tokens = 0;
  for (const serve::Request& r : requests) {
    const double len = static_cast<double>(r.prompt.size());
    prompt_tokens += r.prompt.size();
    prefill_key_sum += len * (len + 1.0) / 2.0;
    const kv::CacheBudget b =
        kv::make_budget(r.prompt.size(), r.gen.cache_ratio, r.gen.recent_ratio);
    decode_key_sum += static_cast<double>(r.gen.max_new_tokens) *
                      static_cast<double>(b.max_tokens + 1);
    gen_tokens += r.gen.max_new_tokens;
  }

  JsonObject model_json;
  model_json.num("vocab_size", mcfg.vocab_size)
      .num("d_model", mcfg.d_model)
      .num("n_layers", mcfg.n_layers)
      .num("n_heads", mcfg.n_heads)
      .num("d_ff", mcfg.d_ff);
  JsonObject check;
  check.num("requests", n_check)
      .num("token_match", n_check - mismatched.size())
      .array("mismatched_ids", mismatched)
      .num("rouge2_requests", probe.requests.size())
      .num("rouge2_f1_mean", rouge2)
      .num("pass_mismatches", pass_mismatches);
  JsonObject o;
  o.str("workload", workload_name)
      .num("seed", seed)
      .str("isa", cpu::isa_name(cpu::active_isa()))
      .num("threads", ThreadPool::global().size())
      .num("requests", requests.size())
      .num("prompt_tokens", prompt_tokens)
      .num("prefill_key_tokens_mean",
           prefill_key_sum / static_cast<double>(prompt_tokens))
      .num("decode_key_tokens_mean",
           decode_key_sum / static_cast<double>(gen_tokens))
      .raw("model", model_json.done())
      .array("setup_s", setup_s)
      .num("peak_rss_mb", serving_peak_rss_mb)
      .raw("check", check.done());
  std::string joined = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    joined += (i > 0 ? "," : "") + passes[i];
  }
  o.raw("passes", joined + "]");
  std::cout << o.done() << '\n';
  return 0;
}
