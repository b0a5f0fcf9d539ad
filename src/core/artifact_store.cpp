/**
 * @file
 * Campaign artifact store implementation.
 */

#include "artifact_store.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "stats/fingerprint.h"
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

/**
 * A pair entry: metadata, kind, then SimulationResult::words().  The
 * field tables next to PerfCounters, CpiStack and PowerBreakdown fix
 * the word order, so a new field joins the format by being added to
 * its struct and table, together with a kStoreEngineVersion bump.
 */
std::string
serializeEntry(const StoreKey &key, const uarch::SimulationResult &result)
{
    ByteWriter payload;
    writeMetadata(payload, key);
    payload.u64(kKindPair);
    for (std::uint64_t word : result.words())
        payload.u64(word);
    return finishEntry(key, payload);
}

/**
 * A phased entry: metadata, kind, phase count, each phase's words, the
 * combined counters in kPerfCounterFields order and the combined CPI.
 */
std::string
serializePhasedEntry(const StoreKey &key,
                     const uarch::PhasedSimulationResult &result)
{
    ByteWriter payload;
    writeMetadata(payload, key);
    payload.u64(kKindPhased);
    payload.u64(result.per_phase.size());
    for (const uarch::SimulationResult &phase : result.per_phase)
        for (std::uint64_t word : phase.words())
            payload.u64(word);
    for (const auto &field : uarch::kPerfCounterFields)
        payload.u64(result.combined_counters.*field.member);
    payload.f64(result.combined_cpi);
    return finishEntry(key, payload);
}

/**
 * Read a whole file; false on any I/O failure.  One open(), then read()
 * through a stack buffer until end of file (an entry is a few hundred
 * bytes: one read and the end-of-file read), retrying on EINTR.  This
 * is the read path behind load(), loadPhased() and scanStore().
 */
bool
readFile(const std::string &path, std::string &out)
{
    int fd;
    do
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return false;
    std::string bytes;
    char chunk[4096];
    ssize_t n;
    do {
        n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0)
            bytes.append(chunk, static_cast<std::size_t>(n));
    } while (n > 0 || (n < 0 && errno == EINTR));
    ::close(fd);
    if (n < 0)
        return false;
    out = std::move(bytes);
    return true;
}

/**
 * Call @p visit(path) for each file a store treats as an entry: every
 * `*.slart` in a `shard-*` subdirectory of @p directory, in directory
 * order.  Counting, scanning and invalidation all list entries through
 * this one walk.  It allocates no list: the daemon's stats reply counts
 * entries on every request.
 */
template <typename Visit>
void
forEachEntryFile(const std::string &directory, Visit visit)
{
    std::error_code ec;
    for (const auto &shard : fs::directory_iterator(directory, ec)) {
        std::error_code shard_ec;
        if (!shard.is_directory(shard_ec) ||
            shard.path().filename().string().rfind(kStoreShardPrefix, 0) !=
                0)
            continue;
        for (const auto &file :
             fs::directory_iterator(shard.path(), shard_ec))
            if (file.path().extension() == kStoreEntrySuffix)
                visit(file.path());
    }
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
 *        read, and the decoded result on success (may be null).
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
                    "header fingerprint " + stats::hex16(fingerprint) +
                        " != expected " +
                        stats::hex16(expect_fingerprint));

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
    auto readResult = [&reader] {
        uarch::SimulationResult::Words words;
        for (std::uint64_t &word : words)
            word = reader.u64();
        return uarch::SimulationResult::fromWords(words);
    };
    if (kind == kKindPair) {
        uarch::SimulationResult result = readResult();
        if (reader.failed() || !reader.exhausted())
            return fail(StoreStatus::Corrupt, "malformed payload");
        std::string defect = identityDefect(result.counters, "result");
        if (!defect.empty())
            return fail(StoreStatus::Corrupt, defect);
        if (out)
            *out = result;
        if (info)
            info->result = result;
    } else {
        uarch::PhasedSimulationResult result;
        std::uint64_t phases = reader.u64();
        for (std::uint64_t k = 0; k < phases && !reader.failed(); ++k)
            result.per_phase.push_back(readResult());
        for (const auto &field : uarch::kPerfCounterFields)
            result.combined_counters.*field.member = reader.u64();
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
        else if (info)
            info->phased = std::move(result);
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

bool
parseStoreEntryName(const std::string &filename, std::uint64_t &fingerprint)
{
    std::uint64_t value = 0;
    const char *digits = filename.data();
    if (filename.size() < 16 ||
        std::from_chars(digits, digits + 16, value, 16).ec != std::errc() ||
        filename != stats::hex16(value) + kStoreEntrySuffix)
        return false;
    fingerprint = value;
    return true;
}

stats::Fingerprinter
pairKeyPrefix(const trace::WorkloadProfile &profile,
              const uarch::SimulationConfig &config)
{
    stats::Fingerprinter fp;
    fp.tag("speclens.pair");
    fp.u64(kStoreEngineVersion);
    config.hashInto(fp);
    profile.hashInto(fp);
    return fp;
}

StoreKey
makeStoreKey(const trace::WorkloadProfile &profile,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
    return pairStoreKey(pairKeyPrefix(profile, config), profile, machine,
                        config);
}

StoreKey
pairStoreKey(stats::Fingerprinter fp, const trace::WorkloadProfile &profile,
             const uarch::MachineConfig &machine,
             const uarch::SimulationConfig &config)
{
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
      case StoreStatus::Misfiled: return "misfiled";
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
    // A temp file is `<entry>.slart.tmp<pid>.<thread-hash>` (or a
    // half-written `run-manifest.json.tmp...`); one matching is a
    // leftover from a writer that died between the temp write and the
    // atomic rename -- or the file of a live writer, in this or
    // another process, between those two steps.  A save takes
    // milliseconds, so only a temp file unchanged for
    // kOrphanedTempAge is swept: a live writer's file is younger.
    // Readers never open a CampaignStore; scanStore() sweeps nothing.
    const std::string entry_marker =
        std::string(kStoreEntrySuffix) + ".tmp";
    const std::string manifest_marker =
        std::string(obs::kManifestFileName) + ".tmp";
    const auto now = fs::file_time_type::clock::now();
    std::size_t removed = 0;
    auto sweepDir = [&](const std::string &dir) {
        std::error_code ec;
        for (const auto &file : fs::directory_iterator(dir, ec)) {
            std::string name = file.path().filename().string();
            if (name.find(entry_marker) == std::string::npos &&
                name.rfind(manifest_marker, 0) != 0)
                continue;
            std::error_code time_ec;
            const auto written = fs::last_write_time(file.path(), time_ec);
            if (time_ec || now - written < kOrphanedTempAge)
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
           stats::hex16(key.fingerprint) + kStoreEntrySuffix;
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
      case StoreStatus::Misfiled: // never: a load opens the home shard
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

    // Unique temp name per process and thread: two writers racing on
    // the same key write identical bytes to distinct temp files; both
    // renames install a complete entry.
    std::string temp = obs::tempPathFor(path);
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
    forEachEntryFile(directory_, [&count](const fs::path &) { ++count; });
    return count;
}

StoreScan
scanStore(const std::string &directory)
{
    StoreScan scan;
    std::error_code ec;
    scan.found = fs::is_directory(directory, ec);
    forEachEntryFile(directory, [&scan](const fs::path &file) {
        const std::string shard_name = file.parent_path().filename().string();
        StoreEntryInfo info;
        info.filename = shard_name + "/" + file.filename().string();

        // The entry's address is its file name; a rename is a
        // fingerprint mismatch even when the content is intact.
        std::uint64_t addressed = 0;
        bool valid_name =
            parseStoreEntryName(file.filename().string(), addressed);

        std::string bytes;
        if (!readFile(file.string(), bytes)) {
            info.status = StoreStatus::Corrupt;
            info.detail = "unreadable";
        } else if (!valid_name) {
            info.status = StoreStatus::Corrupt;
            info.detail = "file name is not a 16-digit lower-case hex "
                          "fingerprint";
        } else {
            verifyEntry(bytes, addressed, nullptr, nullptr, &info);
        }
        // A load opens only the fingerprint's own shard, so an entry
        // anywhere else is unreachable, whatever it holds.
        std::string home = storeShardDirName(storeShardIndex(addressed));
        if (valid_name && shard_name != home) {
            info.status = StoreStatus::Misfiled;
            info.detail = "filed in " + shard_name +
                          " but its fingerprint belongs in " + home;
        }
        scan.entries.push_back(std::move(info));
    });
    std::sort(scan.entries.begin(), scan.entries.end(),
              [](const StoreEntryInfo &a, const StoreEntryInfo &b) {
                  return a.filename < b.filename;
              });
    return scan;
}

std::size_t
CampaignStore::invalidate()
{
    std::size_t removed = 0;
    forEachEntryFile(directory_, [&removed](const fs::path &file) {
        std::error_code ec;
        removed += fs::remove(file, ec) ? 1 : 0;
    });
    return removed;
}

std::size_t
CampaignStore::invalidateStale()
{
    std::size_t removed = 0;
    for (const StoreEntryInfo &info : scanStore(directory_).entries) {
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
