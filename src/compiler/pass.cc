#include "compiler/pass.h"

#include <chrono>

#include "common/metrics.h"

namespace cinnamon::compiler {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
PassManager::run(PassContext &pcx, const DumpHandler &dump) const
{
    auto &metrics = MetricsRegistry::global();
    // Op-count chaining: each pass's output count is the next pass's
    // input count; the pipeline's input is the ciphertext program.
    double last_count =
        pcx.prog ? static_cast<double>(pcx.prog->ops().size()) : 0.0;

    for (const auto &pass : passes_) {
        ScopedSpan span(pcx.trace, "compiler." + pass.name, "compiler",
                        0, 0);
        span.arg("ops_in", last_count);

        const auto start = std::chrono::steady_clock::now();
        pass.run(pcx);
        if (pcx.cfg.verify_ir && pass.verify) {
            ScopedSpan vspan(pcx.trace, "compiler.verify." + pass.name,
                             "compiler", 0, 0);
            const auto vstart = std::chrono::steady_clock::now();
            pass.verify(pcx);
            metrics.histogram("compiler.verify." + pass.name + ".ms")
                .observe(msSince(vstart));
        }
        const double ms = msSince(start);

        metrics.histogram("compiler.pass." + pass.name + ".ms")
            .observe(ms);
        metrics.counter("compiler.pass." + pass.name + ".ops_in")
            .add(last_count);
        if (pass.count) {
            last_count = static_cast<double>(pass.count(pcx));
            metrics.counter("compiler.pass." + pass.name + ".ops_out")
                .add(last_count);
            span.arg("ops_out", last_count);
        }
        if (dump && pass.dump && !pass.dump_stage.empty())
            dump(pass.dump_stage, pass.dump(pcx));
    }
}

} // namespace cinnamon::compiler
