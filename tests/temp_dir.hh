/**
 * @file
 * Scratch files for tests, in a directory private to the test process.
 *
 * A fixed path such as /tmp/memscale_test_x is shared by every process
 * that runs the same suite, so two build trees' ctest runs at once
 * would overwrite each other's snapshots and traces.  The directory
 * is named after the process id under the system temp directory and
 * removed, with whatever the tests left in it, when the process exits.
 */

#ifndef MEMSCALE_TESTS_TEMP_DIR_HH
#define MEMSCALE_TESTS_TEMP_DIR_HH

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace memscale::test
{

/** This process's scratch directory, created on first use. */
inline const std::string &
tempDir()
{
    struct Dir
    {
        pid_t owner = ::getpid();
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("memscale_test_" + std::to_string(owner));

        Dir() { std::filesystem::create_directories(path); }

        ~Dir()
        {
            // A forked child (a death test) exits through here too;
            // only the process that made the directory removes it.
            std::error_code ec;
            if (::getpid() == owner)
                std::filesystem::remove_all(path, ec);
        }
    };
    static const Dir dir;
    static const std::string str = dir.path.string();
    return str;
}

/** Path of the scratch file `name` in tempDir(). */
inline std::string
tempPath(const std::string &name)
{
    return tempDir() + "/" + name;
}

} // namespace memscale::test

#endif // MEMSCALE_TESTS_TEMP_DIR_HH
