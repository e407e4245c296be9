#include "check/certify.h"

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "check/budget.h"
#include "util/io.h"
#include "util/log.h"

namespace fdip
{

namespace
{

/** The named configurations a certificate covers, in emission order. */
struct NamedConfig
{
    std::string name;
    CoreConfig cfg;
};

std::vector<NamedConfig>
certifiedConfigs()
{
    std::vector<NamedConfig> configs;
    configs.push_back({"paper-baseline", paperBaselineConfig()});
    configs.push_back({"no-fdp", noFdpConfig()});
    configs.push_back({"two-level-btb", twoLevelBtbConfig()});
    CoreConfig tage9 = paperBaselineConfig();
    tage9.bpu.tageKilobytes = 9;
    configs.push_back({"tage-9kb", std::move(tage9)});
    CoreConfig tage36 = paperBaselineConfig();
    tage36.bpu.tageKilobytes = 36;
    configs.push_back({"tage-36kb", std::move(tage36)});
    return configs;
}

const char *
itemVerdict(const BudgetItem &item)
{
    if (item.limitBits == 0)
        return "info";
    return item.overLimit() ? "over" : "ok";
}

void
appendItem(std::string &out, const BudgetItem &item, bool last)
{
    // A certificate certifies *exact* accounting: an item that carries
    // no per-field schema would be an approximation, which the format
    // forbids.
    if (!item.exact()) {
        fdip_fatal("budget item '%s' has no storage schema",
                   item.name.c_str());
    }
    out += log_detail::format(
        "      {\"name\": \"%s\", \"bits\": %llu, \"limit_bits\": %llu, "
        "\"verdict\": \"%s\", \"fields\": [\n",
        jsonEscape(item.name).c_str(),
        static_cast<unsigned long long>(item.bits),
        static_cast<unsigned long long>(item.limitBits),
        itemVerdict(item));
    const auto &fields = item.schema.fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const SchemaField &f = fields[i];
        out += log_detail::format(
            "        {\"field\": \"%s\", \"width_bits\": %llu, "
            "\"count\": %llu, \"bits\": %llu}%s\n",
            jsonEscape(f.field).c_str(),
            static_cast<unsigned long long>(f.widthBits),
            static_cast<unsigned long long>(f.count),
            static_cast<unsigned long long>(f.bits()),
            i + 1 < fields.size() ? "," : "");
    }
    out += log_detail::format("      ]}%s\n", last ? "" : ",");
}

} // namespace

std::string
budgetCertificateJson()
{
    const auto configs = certifiedConfigs();
    std::string out = "{\n";
    out += "  \"format\": \"fdip-budget-certificate-v1\",\n";
    out += log_detail::format("  \"addr_bits\": %u,\n", kSchemaAddrBits);
    bool all_ok = true;
    std::string body;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const NamedConfig &nc = configs[ci];
        const BudgetReport r = coreStorageReport(nc.cfg);
        all_ok = all_ok && r.ok();
        body += log_detail::format(
            "    {\"name\": \"%s\", \"verdict\": \"%s\", "
            "\"total_bits\": %llu, \"structures\": [\n",
            jsonEscape(nc.name).c_str(), r.ok() ? "ok" : "over",
            static_cast<unsigned long long>(r.totalBits()));
        const auto &items = r.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            appendItem(body, items[i], i + 1 == items.size());
        body += log_detail::format("    ]}%s\n",
                                   ci + 1 < configs.size() ? "," : "");
    }
    out += log_detail::format("  \"verdict\": \"%s\",\n",
                              all_ok ? "ok" : "over");
    out += "  \"configs\": [\n";
    out += body;
    out += "  ]\n}\n";
    return out;
}

bool
budgetCertificateOk()
{
    for (const auto &nc : certifiedConfigs()) {
        if (!coreStorageReport(nc.cfg).ok())
            return false;
    }
    return true;
}

bool
writeBudgetCertificate(const std::string &path)
{
    FileHandle f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    const std::string json = budgetCertificateJson();
    return std::fwrite(json.data(), 1, json.size(), f.get()) ==
           json.size();
}

} // namespace fdip
