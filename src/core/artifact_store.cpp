/**
 * @file
 * Campaign artifact store implementation.
 */

#include "artifact_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "uarch/perf_counters.h"
#include "verify/violation.h"

namespace speclens {
namespace core {

namespace {

namespace fs = std::filesystem;

/** Store instruments, resolved once per process. */
struct StoreInstruments
{
    obs::Counter &hits;
    obs::Counter &misses;
    obs::Counter &rejected;
    obs::Counter &saves;
    obs::Counter &bytes_read;
    obs::Counter &bytes_written;
    obs::Counter &orphaned_swept;
    obs::Timing &load_time;
    obs::Timing &save_time;

    static const StoreInstruments &
    get()
    {
        obs::Registry &registry = obs::Registry::global();
        static StoreInstruments instruments{
            registry.counter("core.store.hits"),
            registry.counter("core.store.misses"),
            registry.counter("core.store.rejected"),
            registry.counter("core.store.saves"),
            registry.counter("core.store.bytes_read"),
            registry.counter("core.store.bytes_written"),
            registry.counter("core.store.orphaned_temp_swept"),
            registry.timing("core.store.load"),
            registry.timing("core.store.save"),
        };
        return instruments;
    }
};

constexpr char kMagic[8] = {'S', 'L', 'A', 'R', 'T', '0', '0', '1'};
constexpr std::size_t kHeaderBytes = 40;

// Entry-kind marker in the payload: what follows the metadata.
constexpr std::uint64_t kKindPair = 0;   // one SimulationResult
constexpr std::uint64_t kKindPhased = 1; // PhasedSimulationResult

/** FNV-1a over a byte range (the payload checksum). */
std::uint64_t
checksumBytes(const char *data, std::size_t size)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void
    u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            buffer_.push_back(static_cast<char>((value >> shift) & 0xff));
    }

    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &value)
    {
        u64(value.size());
        buffer_.append(value);
    }

    const std::string &bytes() const { return buffer_; }

  private:
    std::string buffer_;
};

/** Bounds-checked little-endian byte source; any overrun sets fail. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint64_t
    u64()
    {
        if (position_ + 8 > size_) {
            failed_ = true;
            return 0;
        }
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8) {
            value |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                         data_[position_++]))
                     << shift;
        }
        return value;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    std::string
    str()
    {
        std::uint64_t length = u64();
        if (failed_ || length > size_ - position_) {
            failed_ = true;
            return {};
        }
        std::string value(data_ + position_,
                          static_cast<std::size_t>(length));
        position_ += static_cast<std::size_t>(length);
        return value;
    }

    bool failed() const { return failed_; }
    bool exhausted() const { return position_ == size_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t position_ = 0;
    bool failed_ = false;
};

/**
 * Serialize one PerfCounters block.  Field order is part of the
 * on-disk format: extending PerfCounters / CpiStack / PowerBreakdown
 * requires appending here, in readCounters()/readResult(), and
 * bumping the magic.
 */
void
writeCounters(ByteWriter &out, const uarch::PerfCounters &c)
{
    out.u64(c.instructions);
    out.u64(c.loads);
    out.u64(c.stores);
    out.u64(c.branches);
    out.u64(c.taken_branches);
    out.u64(c.fp_ops);
    out.u64(c.simd_ops);
    out.u64(c.kernel_instructions);
    out.u64(c.l1d_accesses);
    out.u64(c.l1d_misses);
    out.u64(c.l1i_accesses);
    out.u64(c.l1i_misses);
    out.u64(c.l2d_accesses);
    out.u64(c.l2d_misses);
    out.u64(c.l2i_accesses);
    out.u64(c.l2i_misses);
    out.u64(c.l3_accesses);
    out.u64(c.l3_misses);
    out.u64(c.dtlb_accesses);
    out.u64(c.dtlb_misses);
    out.u64(c.itlb_accesses);
    out.u64(c.itlb_misses);
    out.u64(c.l2tlb_misses);
    out.u64(c.page_walks);
    out.u64(c.branch_mispredictions);
    out.u64(c.prefetch_fills);
    out.u64(c.prefetch_useful);
    out.u64(c.prefetch_evicted_unused);
    out.u64(c.way_pred_hits);
    out.u64(c.way_pred_mispredicts);
    out.u64(c.dram_accesses);
    out.u64(c.dram_row_hits);
    out.u64(c.dram_busy_cycles);
    out.u64(c.dram_budget_cycles);
}

void
writeResult(ByteWriter &out, const uarch::SimulationResult &result)
{
    writeCounters(out, result.counters);

    const uarch::CpiStack &s = result.cpi_stack;
    out.f64(s.base);
    out.f64(s.dependency);
    out.f64(s.frontend_icache);
    out.f64(s.frontend_branch);
    out.f64(s.backend_l2);
    out.f64(s.backend_l3);
    out.f64(s.backend_memory);
    out.f64(s.backend_tlb);

    const uarch::PowerBreakdown &p = result.power;
    out.f64(p.core_watts);
    out.f64(p.llc_watts);
    out.f64(p.dram_watts);
}

void
readCounters(ByteReader &in, uarch::PerfCounters &c)
{
    c.instructions = in.u64();
    c.loads = in.u64();
    c.stores = in.u64();
    c.branches = in.u64();
    c.taken_branches = in.u64();
    c.fp_ops = in.u64();
    c.simd_ops = in.u64();
    c.kernel_instructions = in.u64();
    c.l1d_accesses = in.u64();
    c.l1d_misses = in.u64();
    c.l1i_accesses = in.u64();
    c.l1i_misses = in.u64();
    c.l2d_accesses = in.u64();
    c.l2d_misses = in.u64();
    c.l2i_accesses = in.u64();
    c.l2i_misses = in.u64();
    c.l3_accesses = in.u64();
    c.l3_misses = in.u64();
    c.dtlb_accesses = in.u64();
    c.dtlb_misses = in.u64();
    c.itlb_accesses = in.u64();
    c.itlb_misses = in.u64();
    c.l2tlb_misses = in.u64();
    c.page_walks = in.u64();
    c.branch_mispredictions = in.u64();
    c.prefetch_fills = in.u64();
    c.prefetch_useful = in.u64();
    c.prefetch_evicted_unused = in.u64();
    c.way_pred_hits = in.u64();
    c.way_pred_mispredicts = in.u64();
    c.dram_accesses = in.u64();
    c.dram_row_hits = in.u64();
    c.dram_busy_cycles = in.u64();
    c.dram_budget_cycles = in.u64();
}

void
readResult(ByteReader &in, uarch::SimulationResult &result)
{
    readCounters(in, result.counters);

    uarch::CpiStack &s = result.cpi_stack;
    s.base = in.f64();
    s.dependency = in.f64();
    s.frontend_icache = in.f64();
    s.frontend_branch = in.f64();
    s.backend_l2 = in.f64();
    s.backend_l3 = in.f64();
    s.backend_memory = in.f64();
    s.backend_tlb = in.f64();

    uarch::PowerBreakdown &p = result.power;
    p.core_watts = in.f64();
    p.llc_watts = in.f64();
    p.dram_watts = in.f64();
}

void
writeMetadata(ByteWriter &payload, const StoreKey &key)
{
    payload.str(key.benchmark);
    payload.str(key.machine);
    payload.u64(key.instructions);
    payload.u64(key.warmup);
    payload.u64(key.seed_salt);
    payload.u64(key.apply_machine_transform ? 1 : 0);
    payload.u64(key.prewarm ? 1 : 0);
}

std::string
finishEntry(const StoreKey &key, const ByteWriter &payload)
{
    std::string bytes(kMagic, sizeof(kMagic));
    ByteWriter header;
    header.u64(kStoreEngineVersion);
    header.u64(key.fingerprint);
    header.u64(payload.bytes().size());
    header.u64(checksumBytes(payload.bytes().data(),
                             payload.bytes().size()));
    bytes += header.bytes();
    bytes += payload.bytes();
    return bytes;
}

std::string
serializeEntry(const StoreKey &key, const uarch::SimulationResult &result)
{
    ByteWriter payload;
    writeMetadata(payload, key);
    payload.u64(kKindPair);
    writeResult(payload, result);
    return finishEntry(key, payload);
}

std::string
serializePhasedEntry(const StoreKey &key,
                     const uarch::PhasedSimulationResult &result)
{
    ByteWriter payload;
    writeMetadata(payload, key);
    payload.u64(kKindPhased);
    payload.u64(result.per_phase.size());
    for (const uarch::SimulationResult &phase : result.per_phase)
        writeResult(payload, phase);
    writeCounters(payload, result.combined_counters);
    payload.f64(result.combined_cpi);
    return finishEntry(key, payload);
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return std::string(buffer);
}

/** Read a whole file; false on any I/O failure. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    if (file.bad())
        return false;
    out = std::move(bytes);
    return true;
}

/**
 * Parse and verify one serialized entry.
 *
 * @param expect_fingerprint The fingerprint the caller addressed
 *        (from the key or the file name); checked against the header.
 * @param out Receives a pair entry's result on full success (may be
 *        null).  Requesting a pair from a phased entry is Corrupt.
 * @param out_phased Same for a phased entry.  Null together with
 *        @p out means verification only: either kind is accepted.
 * @param info Receives header/metadata fields as far as they could be
 *        read (may be null).
 */
StoreStatus
verifyEntry(const std::string &bytes, std::uint64_t expect_fingerprint,
            uarch::SimulationResult *out,
            uarch::PhasedSimulationResult *out_phased, StoreEntryInfo *info)
{
    auto fail = [&](StoreStatus status, const std::string &detail) {
        if (info) {
            info->status = status;
            info->detail = detail;
        }
        return status;
    };

    if (bytes.size() < kHeaderBytes)
        return fail(StoreStatus::Corrupt, "truncated header");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return fail(StoreStatus::Corrupt, "bad magic");

    ByteReader header(bytes.data() + sizeof(kMagic),
                      kHeaderBytes - sizeof(kMagic));
    std::uint64_t engine_version = header.u64();
    std::uint64_t fingerprint = header.u64();
    std::uint64_t payload_size = header.u64();
    std::uint64_t checksum = header.u64();
    if (info) {
        info->engine_version = engine_version;
        info->fingerprint = fingerprint;
    }

    if (payload_size != bytes.size() - kHeaderBytes)
        return fail(StoreStatus::Corrupt, "truncated payload");
    const char *payload = bytes.data() + kHeaderBytes;
    if (checksumBytes(payload, static_cast<std::size_t>(payload_size)) !=
        checksum)
        return fail(StoreStatus::Corrupt, "checksum mismatch");

    // The payload is now bit-trustworthy; metadata can be surfaced
    // even for entries a different engine version wrote.
    ByteReader reader(payload, static_cast<std::size_t>(payload_size));
    std::string benchmark = reader.str();
    std::string machine = reader.str();
    std::uint64_t instructions = reader.u64();
    std::uint64_t warmup = reader.u64();
    std::uint64_t seed_salt = reader.u64();
    bool transform = reader.u64() != 0;
    bool prewarm = reader.u64() != 0;
    std::uint64_t kind = reader.u64();
    if (info && !reader.failed()) {
        info->benchmark = benchmark;
        info->machine = machine;
        info->instructions = instructions;
        info->warmup = warmup;
        info->seed_salt = seed_salt;
        info->apply_machine_transform = transform;
        info->prewarm = prewarm;
    }
    if (reader.failed() || (kind != kKindPair && kind != kKindPhased))
        return fail(StoreStatus::Corrupt, "malformed metadata");

    if (engine_version != kStoreEngineVersion)
        return fail(StoreStatus::StaleVersion,
                    "engine version " + std::to_string(engine_version) +
                        " != " + std::to_string(kStoreEngineVersion));
    if (fingerprint != expect_fingerprint)
        return fail(StoreStatus::FingerprintMismatch,
                    "header fingerprint " + fingerprintHex(fingerprint) +
                        " != expected " +
                        fingerprintHex(expect_fingerprint));

    // Kind agreement: a checksum-valid entry of the wrong kind under
    // the requested address can only be manual tampering (the kind is
    // part of the fingerprint domain), so reject it as corrupt.
    if (out && kind != kKindPair)
        return fail(StoreStatus::Corrupt, "phased entry, pair requested");
    if (out_phased && kind != kKindPhased)
        return fail(StoreStatus::Corrupt, "pair entry, phased requested");

    // A checksum only proves the bytes are the ones written; the
    // counters must also satisfy the accounting identities every
    // simulated window does.
    auto identityDefect = [](const uarch::PerfCounters &counters,
                             const std::string &where) {
        std::vector<verify::Violation> found =
            uarch::checkCounterIdentities(counters);
        return found.empty() ? std::string()
                             : "counter identity broken in " + where +
                                   ": " +
                                   verify::renderViolation(found.front());
    };
    if (kind == kKindPair) {
        uarch::SimulationResult result;
        readResult(reader, result);
        if (reader.failed() || !reader.exhausted())
            return fail(StoreStatus::Corrupt, "malformed payload");
        std::string defect = identityDefect(result.counters, "result");
        if (!defect.empty())
            return fail(StoreStatus::Corrupt, defect);
        if (out)
            *out = result;
    } else {
        uarch::PhasedSimulationResult result;
        std::uint64_t phases = reader.u64();
        for (std::uint64_t k = 0; k < phases && !reader.failed(); ++k) {
            uarch::SimulationResult phase;
            readResult(reader, phase);
            result.per_phase.push_back(phase);
        }
        readCounters(reader, result.combined_counters);
        result.combined_cpi = reader.f64();
        if (reader.failed() || !reader.exhausted())
            return fail(StoreStatus::Corrupt, "malformed payload");
        std::string defect =
            identityDefect(result.combined_counters, "combined counters");
        for (std::size_t k = 0; defect.empty() && k < phases; ++k)
            defect = identityDefect(result.per_phase[k].counters,
                                    "phase " + std::to_string(k));
        if (!defect.empty())
            return fail(StoreStatus::Corrupt, defect);
        if (info)
            info->phases = phases;
        if (out_phased)
            *out_phased = std::move(result);
    }

    if (info) {
        info->status = StoreStatus::Hit;
        info->detail.clear();
    }
    return StoreStatus::Hit;
}

} // namespace

std::string
storeShardDirName(std::size_t shard)
{
    static const char digits[] = "0123456789abcdef";
    return std::string(kStoreShardPrefix) +
           digits[shard & (kStoreShardCount - 1)];
}

StoreKey
makeStoreKey(const trace::WorkloadProfile &profile,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
    stats::Fingerprinter fp;
    fp.tag("speclens.pair");
    fp.u64(kStoreEngineVersion);
    config.hashInto(fp);
    profile.hashInto(fp);
    machine.hashInto(fp);

    StoreKey key;
    key.fingerprint = fp.value();
    key.benchmark = profile.name;
    key.machine = machine.name;
    key.instructions = config.instructions;
    key.warmup = config.warmup;
    key.seed_salt = config.seed_salt;
    key.apply_machine_transform = config.apply_machine_transform;
    key.prewarm = config.prewarm;
    return key;
}

StoreKey
makeStoreKey(const trace::PhasedWorkload &workload,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
    stats::Fingerprinter fp;
    fp.tag("speclens.phased");
    fp.u64(kStoreEngineVersion);
    config.hashInto(fp);
    workload.hashInto(fp);
    machine.hashInto(fp);

    StoreKey key;
    key.fingerprint = fp.value();
    key.benchmark = workload.name;
    key.machine = machine.name;
    key.instructions = config.instructions;
    key.warmup = config.warmup;
    key.seed_salt = config.seed_salt;
    key.apply_machine_transform = config.apply_machine_transform;
    key.prewarm = config.prewarm;
    return key;
}

uarch::SimulationResult
storedSimulate(CampaignStore *store, const trace::WorkloadProfile &profile,
               const uarch::MachineConfig &machine,
               const uarch::SimulationConfig &config)
{
    if (!store)
        return uarch::simulate(profile, machine, config);

    StoreKey key = makeStoreKey(profile, machine, config);
    uarch::SimulationResult loaded;
    if (store->load(key, loaded) == StoreStatus::Hit)
        return loaded;
    uarch::SimulationResult result =
        uarch::simulate(profile, machine, config);
    store->recordComputed();
    store->save(key, result);
    return result;
}

uarch::PhasedSimulationResult
storedSimulatePhased(CampaignStore *store,
                     const trace::PhasedWorkload &workload,
                     const uarch::MachineConfig &machine,
                     const uarch::SimulationConfig &config)
{
    if (!store)
        return uarch::simulatePhased(workload, machine, config);

    StoreKey key = makeStoreKey(workload, machine, config);
    uarch::PhasedSimulationResult loaded;
    if (store->loadPhased(key, loaded) == StoreStatus::Hit)
        return loaded;
    uarch::PhasedSimulationResult result =
        uarch::simulatePhased(workload, machine, config);
    store->recordComputed();
    store->savePhased(key, result);
    return result;
}

std::string
storeStatusName(StoreStatus status)
{
    switch (status) {
      case StoreStatus::Hit: return "hit";
      case StoreStatus::Miss: return "miss";
      case StoreStatus::Corrupt: return "corrupt";
      case StoreStatus::StaleVersion: return "stale-version";
      case StoreStatus::FingerprintMismatch:
          return "fingerprint-mismatch";
    }
    return "unknown";
}

CampaignStore::CampaignStore(std::string directory)
    : directory_(std::move(directory))
{
    // Best effort: a directory that cannot be created degrades the
    // store to misses + failed saves rather than aborting the run.
    std::error_code ec;
    fs::create_directories(directory_, ec);
    for (std::size_t shard = 0; shard < kStoreShardCount; ++shard)
        fs::create_directories(shardPath(shard), ec);

    std::size_t swept = sweepOrphanedTempFiles();
    if (swept > 0) {
        StoreInstruments::get().orphaned_swept.add(swept);
        orphaned_temp_.fetch_add(swept, std::memory_order_relaxed);
    }
}

std::string
CampaignStore::shardPath(std::size_t shard) const
{
    return directory_ + "/" + storeShardDirName(shard);
}

std::size_t
CampaignStore::sweepOrphanedTempFiles()
{
    // A temp file is `<entry>.slart.tmp<thread-hash>` (or a
    // half-written `run-manifest.json.tmp<hash>`); anything matching
    // is a leftover from a writer that died between the temp write and
    // the atomic rename.  No live writer can race this: temp names are
    // keyed to running threads and the sweep happens before this
    // handle serves any save.
    const std::string entry_marker =
        std::string(kStoreEntrySuffix) + ".tmp";
    const std::string manifest_marker =
        std::string(obs::kManifestFileName) + ".tmp";
    std::size_t removed = 0;
    auto sweepDir = [&](const std::string &dir) {
        std::error_code ec;
        for (const auto &file : fs::directory_iterator(dir, ec)) {
            std::string name = file.path().filename().string();
            if (name.find(entry_marker) == std::string::npos &&
                name.rfind(manifest_marker, 0) != 0)
                continue;
            std::error_code remove_ec;
            if (fs::remove(file.path(), remove_ec))
                ++removed;
        }
    };
    sweepDir(directory_);
    for (std::size_t shard = 0; shard < kStoreShardCount; ++shard)
        sweepDir(shardPath(shard));
    return removed;
}

std::string
CampaignStore::entryPath(const StoreKey &key) const
{
    return shardPath(storeShardIndex(key.fingerprint)) + "/" +
           fingerprintHex(key.fingerprint) + kStoreEntrySuffix;
}

StoreStatus
CampaignStore::load(const StoreKey &key, uarch::SimulationResult &out)
{
    return loadEntry(key, &out, nullptr);
}

StoreStatus
CampaignStore::loadPhased(const StoreKey &key,
                          uarch::PhasedSimulationResult &out)
{
    return loadEntry(key, nullptr, &out);
}

StoreStatus
CampaignStore::loadEntry(const StoreKey &key,
                         uarch::SimulationResult *pair,
                         uarch::PhasedSimulationResult *phased)
{
    const StoreInstruments &instruments = StoreInstruments::get();
    obs::Span span(instruments.load_time);
    std::string bytes;
    StoreStatus status = StoreStatus::Miss;
    if (readFile(entryPath(key), bytes)) {
        instruments.bytes_read.add(bytes.size());
        status = verifyEntry(bytes, key.fingerprint, pair, phased,
                             nullptr);
    }
    switch (status) {
      case StoreStatus::Hit:
          hits_.fetch_add(1, std::memory_order_relaxed);
          instruments.hits.add();
          break;
      case StoreStatus::Miss:
          misses_.fetch_add(1, std::memory_order_relaxed);
          instruments.misses.add();
          break;
      case StoreStatus::Corrupt:
          corrupt_.fetch_add(1, std::memory_order_relaxed);
          instruments.rejected.add();
          break;
      case StoreStatus::StaleVersion:
          stale_version_.fetch_add(1, std::memory_order_relaxed);
          instruments.rejected.add();
          break;
      case StoreStatus::FingerprintMismatch:
          fingerprint_mismatch_.fetch_add(1, std::memory_order_relaxed);
          instruments.rejected.add();
          break;
    }
    return status;
}

void
CampaignStore::recordComputed()
{
    computed_.fetch_add(1, std::memory_order_relaxed);
}

bool
CampaignStore::save(const StoreKey &key,
                    const uarch::SimulationResult &result)
{
    return writeEntry(serializeEntry(key, result), entryPath(key));
}

bool
CampaignStore::savePhased(const StoreKey &key,
                          const uarch::PhasedSimulationResult &result)
{
    return writeEntry(serializePhasedEntry(key, result), entryPath(key));
}

bool
CampaignStore::writeEntry(const std::string &bytes,
                          const std::string &path)
{
    obs::Span span(StoreInstruments::get().save_time);

    // Unique temp name per thread: two threads racing on the same key
    // write identical bytes to distinct temp files; both renames
    // install a complete entry.
    std::string temp =
        path + ".tmp" +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream file(temp, std::ios::binary | std::ios::trunc);
        if (!file)
            return false;
        file.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        if (!file)
            return false;
    }
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
        fs::remove(temp, ec);
        return false;
    }

    StoreInstruments::get().saves.add();
    StoreInstruments::get().bytes_written.add(bytes.size());
    saves_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

StoreCounters
CampaignStore::counters() const
{
    StoreCounters out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.corrupt = corrupt_.load(std::memory_order_relaxed);
    out.stale_version = stale_version_.load(std::memory_order_relaxed);
    out.fingerprint_mismatch =
        fingerprint_mismatch_.load(std::memory_order_relaxed);
    out.saves = saves_.load(std::memory_order_relaxed);
    out.computed = computed_.load(std::memory_order_relaxed);
    out.orphaned_temp = orphaned_temp_.load(std::memory_order_relaxed);
    return out;
}

std::size_t
CampaignStore::entryCount() const
{
    std::size_t count = 0;
    for (std::size_t shard = 0; shard < kStoreShardCount; ++shard) {
        std::error_code ec;
        for (const auto &file : fs::directory_iterator(shardPath(shard), ec))
            if (file.path().extension() == kStoreEntrySuffix)
                ++count;
    }
    return count;
}

std::vector<StoreEntryInfo>
CampaignStore::scan() const
{
    std::vector<StoreEntryInfo> entries;
    for (std::size_t shard = 0; shard < kStoreShardCount; ++shard) {
        std::error_code ec;
        for (const auto &file : fs::directory_iterator(shardPath(shard), ec)) {
            if (file.path().extension() != kStoreEntrySuffix)
                continue;

            StoreEntryInfo info;
            info.filename = storeShardDirName(shard) + "/" +
                            file.path().filename().string();
            std::error_code size_ec;
            auto size = fs::file_size(file.path(), size_ec);
            info.file_bytes = size_ec ? 0 : size;

            // The entry's address is its file name; a rename is a
            // fingerprint mismatch even when the content is intact.
            std::string stem = file.path().stem().string();
            std::uint64_t addressed = 0;
            bool valid_name = stem.size() == 16;
            if (valid_name) {
                char *end = nullptr;
                addressed = std::strtoull(stem.c_str(), &end, 16);
                valid_name = end && *end == '\0';
            }

            std::string bytes;
            if (!readFile(file.path().string(), bytes)) {
                info.status = StoreStatus::Corrupt;
                info.detail = "unreadable";
            } else if (!valid_name) {
                info.status = StoreStatus::Corrupt;
                info.detail =
                    "file name is not a 16-digit hex fingerprint";
            } else {
                verifyEntry(bytes, addressed, nullptr, nullptr, &info);
            }
            entries.push_back(std::move(info));
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const StoreEntryInfo &a, const StoreEntryInfo &b) {
                  return a.filename < b.filename;
              });
    return entries;
}

std::size_t
CampaignStore::invalidate()
{
    std::size_t removed = 0;
    for (std::size_t shard = 0; shard < kStoreShardCount; ++shard) {
        std::error_code ec;
        for (const auto &file : fs::directory_iterator(shardPath(shard), ec)) {
            std::error_code remove_ec;
            if (file.path().extension() == kStoreEntrySuffix &&
                fs::remove(file.path(), remove_ec))
                ++removed;
        }
    }
    return removed;
}

std::size_t
CampaignStore::invalidateStale()
{
    std::size_t removed = 0;
    for (const StoreEntryInfo &info : scan()) {
        if (info.status == StoreStatus::Hit)
            continue;
        std::error_code ec;
        if (fs::remove(directory_ + "/" + info.filename, ec))
            ++removed;
    }
    return removed;
}

} // namespace core
} // namespace speclens
